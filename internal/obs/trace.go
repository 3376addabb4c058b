package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultSlowThreshold is the slow-op retention threshold when the tracer
// config leaves it zero.
const DefaultSlowThreshold = 25 * time.Millisecond

// DefaultSlowLogSize is the slow-op ring capacity when the config leaves it
// zero.
const DefaultSlowLogSize = 128

// TracerConfig parameterizes a Tracer.
type TracerConfig struct {
	// Enabled starts the tracer on. Tracing can be toggled at runtime
	// with SetEnabled; when off, StartSpan returns a nil span and the
	// whole path is a single atomic load — no clock reads, no
	// allocations.
	Enabled bool
	// SlowThreshold is the total-duration bar at or above which a
	// finished root span retains its full span tree in the slow-op ring.
	// Zero selects DefaultSlowThreshold; negative retains every traced
	// op (useful in tests and smoke checks).
	SlowThreshold time.Duration
	// SlowLogSize is the ring capacity (zero selects
	// DefaultSlowLogSize). The ring keeps the most recent entries.
	SlowLogSize int
}

// Tracer creates spans and collects their stage timings into registry
// histograms plus a ring buffer of slow operations. A nil *Tracer is valid
// and permanently disabled.
type Tracer struct {
	reg     *Registry
	enabled atomic.Bool
	slowNs  int64
	hists   sync.Map // stage name -> *Histogram

	ringMu   sync.Mutex
	ring     []*Span
	ringNext int
	ringLen  int
}

// NewTracer creates a tracer recording into reg.
func NewTracer(reg *Registry, cfg TracerConfig) *Tracer {
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = DefaultSlowThreshold
	}
	if cfg.SlowLogSize <= 0 {
		cfg.SlowLogSize = DefaultSlowLogSize
	}
	t := &Tracer{
		reg:    reg,
		slowNs: int64(cfg.SlowThreshold),
		ring:   make([]*Span, cfg.SlowLogSize),
	}
	t.enabled.Store(cfg.Enabled)
	return t
}

// SetEnabled toggles tracing at runtime.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// Enabled reports whether spans are currently being created.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// stageHist returns the registry histogram for a stage name, cached so the
// recording path skips the registry mutex.
func (t *Tracer) stageHist(name string) *Histogram {
	if h, ok := t.hists.Load(name); ok {
		return h.(*Histogram)
	}
	h := t.reg.Histogram(name)
	actual, _ := t.hists.LoadOrStore(name, h)
	return actual.(*Histogram)
}

type spanCtxKey struct{}

// NewSpan starts a root span with no context attachment — for operations
// whose lifetime is carried on a struct (a transaction) rather than a
// context. Returns nil when tracing is disabled; all *Span methods are
// nil-safe no-ops.
func (t *Tracer) NewSpan(op string) *Span {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	return &Span{tracer: t, op: op, start: time.Now()}
}

// StartSpan starts a span and attaches it to the returned context. If the
// context already carries a span, the new span becomes its child. When
// tracing is disabled the original context and a nil span come back and
// nothing is allocated.
func (t *Tracer) StartSpan(ctx context.Context, op string) (context.Context, *Span) {
	if t == nil || !t.enabled.Load() {
		return ctx, nil
	}
	s := &Span{tracer: t, op: op, start: time.Now()}
	if parent, ok := ctx.Value(spanCtxKey{}).(*Span); ok && parent != nil {
		s.parent = parent
		parent.addChild(s)
	}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// FromContext returns the span attached to ctx, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// ContextWithSpan attaches an existing span to ctx, so work handed to
// another goroutine (the asynchronous flush) keeps recording onto the
// originating operation's tree. A nil span returns ctx unchanged.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// Stage is one timed phase inside a span.
type Stage struct {
	Name   string
	Offset time.Duration // from span start; -1 when only a duration is known
	Dur    time.Duration
}

// Span is one traced operation. Stages and children may be recorded from
// multiple goroutines; a span in the slow-op ring may still be live (the
// asynchronous flush tail), and dumps snapshot whatever has landed so far.
type Span struct {
	tracer *Tracer
	op     string
	start  time.Time
	parent *Span

	mu       sync.Mutex
	stages   []Stage
	children []*Span
	dur      time.Duration
	done     bool
}

// Op returns the span's operation name ("" for nil).
func (s *Span) Op() string {
	if s == nil {
		return ""
	}
	return s.op
}

func (s *Span) addChild(c *Span) {
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// StartChild starts a child span without involving a context.
func (s *Span) StartChild(op string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tracer: s.tracer, op: op, start: time.Now(), parent: s}
	s.addChild(c)
	return c
}

// Stage records a stage that began at from and ends now. The stage name is
// also the registry histogram fed, so every traced operation contributes to
// the per-stage latency distributions even when the span itself is not
// retained as slow.
func (s *Span) Stage(name string, from time.Time) {
	if s == nil {
		return
	}
	s.StageEnd(name, from, time.Now())
}

// StageEnd records a stage with explicit bounds.
func (s *Span) StageEnd(name string, from, to time.Time) {
	if s == nil {
		return
	}
	d := to.Sub(from)
	s.tracer.stageHist(name).Record(d)
	s.mu.Lock()
	s.stages = append(s.stages, Stage{Name: name, Offset: from.Sub(s.start), Dur: d})
	s.mu.Unlock()
}

// StageDur records a stage known only by its accumulated duration (e.g.
// write buffering summed across many Put calls); its offset is recorded
// as -1.
func (s *Span) StageDur(name string, d time.Duration) {
	if s == nil {
		return
	}
	s.tracer.stageHist(name).Record(d)
	s.mu.Lock()
	s.stages = append(s.stages, Stage{Name: name, Offset: -1, Dur: d})
	s.mu.Unlock()
}

// Finish ends the span, feeds the "<op>.total" histogram, and — for a root
// span whose total meets the slow threshold — retains the span tree in the
// slow-op ring. Finish is idempotent; an abandoned (never finished) span
// records nothing and is simply garbage collected.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	s.dur = d
	s.mu.Unlock()
	t := s.tracer
	t.stageHist(s.op + ".total").Record(d)
	if s.parent == nil && (t.slowNs < 0 || d >= time.Duration(t.slowNs)) {
		t.ringMu.Lock()
		t.ring[t.ringNext] = s
		t.ringNext = (t.ringNext + 1) % len(t.ring)
		if t.ringLen < len(t.ring) {
			t.ringLen++
		}
		t.ringMu.Unlock()
	}
}

// StageDump is the JSON form of one stage.
type StageDump struct {
	Name     string  `json:"name"`
	OffsetUs float64 `json:"offset_us"`
	DurUs    float64 `json:"dur_us"`
}

// SpanDump is the JSON form of a span tree, as served by /debug/slow.
type SpanDump struct {
	Op       string      `json:"op"`
	Start    time.Time   `json:"start"`
	DurUs    float64     `json:"dur_us"`
	Open     bool        `json:"open,omitempty"` // still unfinished at dump time
	Stages   []StageDump `json:"stages,omitempty"`
	Children []SpanDump  `json:"children,omitempty"`
}

func (s *Span) dump() SpanDump {
	s.mu.Lock()
	d := SpanDump{Op: s.op, Start: s.start, Open: !s.done}
	if s.done {
		d.DurUs = us(s.dur)
	} else {
		d.DurUs = us(time.Since(s.start))
	}
	stages := make([]Stage, len(s.stages))
	copy(stages, s.stages)
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	for _, st := range stages {
		sd := StageDump{Name: st.Name, OffsetUs: us(st.Offset), DurUs: us(st.Dur)}
		if st.Offset < 0 {
			sd.OffsetUs = -1
		}
		d.Stages = append(d.Stages, sd)
	}
	for _, c := range children {
		d.Children = append(d.Children, c.dump())
	}
	return d
}

// SlowOps returns the retained slow operations, newest first.
func (t *Tracer) SlowOps() []SpanDump {
	if t == nil {
		return nil
	}
	t.ringMu.Lock()
	spans := make([]*Span, 0, t.ringLen)
	for i := 0; i < t.ringLen; i++ {
		idx := (t.ringNext - 1 - i + len(t.ring)) % len(t.ring)
		spans = append(spans, t.ring[idx])
	}
	t.ringMu.Unlock()
	out := make([]SpanDump, 0, len(spans))
	for _, s := range spans {
		out = append(out, s.dump())
	}
	return out
}
