package main

import (
	"fmt"
	"path"
	"strconv"
	"strings"
	"time"

	"txkv/internal/cluster"
	"txkv/internal/dfs"
	"txkv/internal/kvstore"
	"txkv/internal/obs"
	"txkv/internal/replica"
	"txkv/internal/rpc"
)

// Per-layer metrics of a traced run. Every metric is read from counters
// the program already keeps (registry snapshots, region heat, the recovery
// manager's events, the txlog's stats) or from the benchmark's own
// timestamps around public calls; each is printed with the base counts it
// is computed from and the end-to-end metric it should move.

// layerSpec names one per-layer metric, its unit, and where it should show.
type layerSpec struct {
	name, unit, moves string
}

var layerSpecs = []layerSpec{
	{"cluster.begin_p50_us", "us", "update_p50_us on wire_rf3, recover"},
	{"cluster.get_p50_us", "us", "get_p50_us on read_cold, wire_rf3"},
	{"cluster.put_p50_us", "us", "update_p50_us on wire_rf3, recover"},
	{"cluster.commit_p50_us", "us", "update_p50_us on recover, wire_rf3"},
	{"cluster.flush_lag_p50_us", "us", "update_p50_us on wire_rf3"},
	{"cluster.layout_hit_ratio", "ratio", "get_p50_us on wire_rf3, read_cold"},
	{"cluster.update_retries_per_commit", "ratio", "update_p50_us on wire_rf3"},
	{"txmgr.abort_ratio", "ratio", "update_p50_us on recover, wire_rf3"},
	{"txmgr.validate_p50_us", "us", "update_p50_us on recover, wire_rf3"},
	{"txmgr.ts_assign_p50_us", "us", "update_p50_us on recover, wire_rf3"},
	{"txlog.writesets_per_sync", "ratio", "update_p50_us on recover, wire_rf3"},
	{"txlog.sync_p50_us", "us", "update_p50_us on recover, wire_rf3"},
	{"txlog.bytes_per_writeset", "bytes", "update_p50_us on recover, wire_rf3"},
	{"txlog.retained_records", "count", "reopen_s on recover"},
	{"kvstore.bloom_probes_per_get", "ratio", "get_p50_us, get_p90_us on read_cold"},
	{"kvstore.bloom_skip_ratio", "ratio", "get_p50_us, get_p90_us on read_cold"},
	{"kvstore.blockcache_hit_ratio", "ratio", "get_p50_us, get_p90_us on read_cold"},
	{"kvstore.mem_hit_ratio", "ratio", "get_p50_us on read_cold, recover"},
	{"kvstore.compression_ratio", "ratio", "get_p90_us on read_cold"},
	{"kvstore.flushes", "count", "reopen_s on recover"},
	{"kvstore.compactions", "count", "reopen_s on recover"},
	{"kvstore.rewrite_bytes_per_user_byte", "ratio", "reopen_s on recover"},
	{"kvstore.scan_pages_per_scan", "ratio", "scan_p50_us on read_cold, wire_rf3"},
	{"rpc.calls_per_op", "ratio", "ops_per_s on wire_rf3"},
	{"rpc.client_p50_us", "us", "get_p50_us on wire_rf3"},
	{"rpc.server_p50_us", "us", "get_p50_us, scan_p50_us on wire_rf3"},
	{"rpc.wire_p50_us", "us", "get_p50_us on wire_rf3"},
	{"rpc.errors_redials_stalls", "count", "get_p90_us, ops_per_s on wire_rf3"},
	{"replica.entries_per_batch", "ratio", "update_p50_us on wire_rf3"},
	{"replica.bytes_per_writeset", "bytes", "update_p50_us on wire_rf3"},
	{"replica.lag_entries", "count", "update_p50_us on wire_rf3"},
	{"replica.quorum_timeouts", "count", "update_p50_us on wire_rf3"},
	{"core.region_recovery_ms", "ms", "failover_ms on recover"},
	{"core.writesets_replayed_per_region", "ratio", "failover_ms on recover"},
	{"obs.tracing_overhead_pct", "%", "ops_per_s of every workload when tracing is on"},
}

// sample is the state of the counters per-layer metrics are computed from,
// read at one instant.
type sample struct {
	reg   obs.Snapshot   // the in-process (or master) cluster registry
	nodes []obs.Snapshot // region-node registries (multi-node deployment)
	ship  replica.Stats  // region-node shippers, summed
	heat  kvstore.RegionHeat
	files layout
	// Client.UpdateStats of the load clients, summed.
	updCommits, updRetries int64
}

// layout is the store-file layout read from the DFS namespace.
type layout struct {
	files  map[string]int // region dir -> live store files
	maxSeq map[string]int // region dir -> highest store-file sequence
}

func storeLayout(fs *dfs.FS) layout {
	l := layout{files: map[string]int{}, maxSeq: map[string]int{}}
	for _, p := range fs.List("/data/" + table + "/") {
		if !strings.HasSuffix(p, ".sf") {
			continue
		}
		dir := path.Dir(p)
		n, err := strconv.Atoi(strings.TrimSuffix(path.Base(p), ".sf"))
		if err != nil {
			continue
		}
		l.files[dir]++
		l.maxSeq[dir] = max(l.maxSeq[dir], n)
	}
	return l
}

// created returns the store files written since before: flushes plus
// compaction outputs.
func (l layout) created(before layout) int64 {
	var n int64
	for dir, s := range l.maxSeq {
		if b, ok := before.maxSeq[dir]; ok {
			n += int64(s - b)
		} else {
			n += int64(s + 1)
		}
	}
	return n
}

func addHeat(sum *kvstore.RegionHeat, h kvstore.RegionHeat) {
	sum.Gets += h.Gets
	sum.MemHits += h.MemHits
	sum.FileHits += h.FileHits
	sum.Misses += h.Misses
	sum.Scans += h.Scans
	sum.BloomProbes += h.BloomProbes
	sum.BloomNegatives += h.BloomNegatives
}

// sampleCluster reads an in-process cluster's counters.
func sampleCluster(c *cluster.Cluster, clients ...*cluster.Client) sample {
	s := sample{reg: c.Obs().Snapshot(), files: storeLayout(c.DFS())}
	for _, rh := range c.RegionHeats() {
		addHeat(&s.heat, rh.RegionHeat)
	}
	for _, cl := range clients {
		cm, r := cl.UpdateStats()
		s.updCommits += cm
		s.updRetries += r
	}
	return s
}

// sampleNodes adds region-node counters to s.
func sampleNodes(s *sample, nodes []*rpc.RegionNode, regs []*obs.Registry) {
	for i, n := range nodes {
		s.nodes = append(s.nodes, regs[i].Snapshot())
		st := n.Shipper().Stats()
		s.ship.ShippedBatches += st.ShippedBatches
		s.ship.ShippedEntries += st.ShippedEntries
		s.ship.ShippedBytes += st.ShippedBytes
		s.ship.QuorumTimeouts += st.QuorumTimeouts
		s.ship.LagEntries = max(s.ship.LagEntries, st.LagEntries)
		for _, rh := range n.Server().RegionHeats() {
			addHeat(&s.heat, rh.Heat)
		}
	}
}

// layerIn is everything one traced run hands the per-layer computation.
type layerIn struct {
	before, after sample
	win           *window
	// windowBytes counts the value+key bytes clients wrote inside the
	// window.
	windowBytes int64
	fail        *failures
	// paced marks a load whose throughput is fixed, so the tracing
	// overhead on it is not measured.
	paced bool
}

// metricLine is one computed per-layer metric.
type metricLine struct {
	spec  layerSpec
	value float64
	base  string
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func p50us(ds []time.Duration) float64 { return micros(quantile(ds, 0.5)) }

// layers computes every per-layer metric; a metric whose layer the
// workload does not exercise reads 0 with its (zero) base counts.
func layers(in layerIn) []metricLine {
	b, a := in.before, in.after
	dc := func(name string) float64 { return float64(a.reg.Counters[name] - b.reg.Counters[name]) }
	sumNodes := func(s sample, name string) float64 {
		var t int64
		for _, n := range s.nodes {
			t += n.Counters[name]
		}
		return float64(t + s.reg.Counters[name])
	}
	dn := func(name string) float64 { return sumNodes(a, name) - sumNodes(b, name) }
	sp := in.win.split
	ops := float64(in.win.log.completed())
	scans := float64(len(in.win.log.lat[opScan]))
	gets := float64(a.heat.Gets - b.heat.Gets)

	vals := map[string]metricLine{}
	set := func(name string, v float64, base string, args ...any) {
		vals[name] = metricLine{value: v, base: fmt.Sprintf(base, args...)}
	}
	set("cluster.begin_p50_us", p50us(sp.begin), "%d timed BeginTxn", len(sp.begin))
	set("cluster.get_p50_us", p50us(sp.get), "%d timed Txn.Get", len(sp.get))
	set("cluster.put_p50_us", p50us(sp.put), "%d timed Txn.Put", len(sp.put))
	set("cluster.commit_p50_us", p50us(sp.commit), "%d timed Txn.Commit", len(sp.commit))
	set("cluster.flush_lag_p50_us", p50us(sp.flushWait), "%d timed WaitFlushed after Commit", len(sp.flushWait))
	hits, misses := dc("client.layout_hits"), dc("client.layout_misses")
	set("cluster.layout_hit_ratio", ratio(hits, hits+misses), "%.0f layout hits / %.0f lookups", hits, hits+misses)
	commits := float64(a.updCommits-b.updCommits) + float64(sp.commits)
	retries := float64(a.updRetries-b.updRetries) + float64(sp.retries)
	set("cluster.update_retries_per_commit", ratio(retries, commits), "%.0f retries / %.0f commits", retries, commits)

	tc, ta := dc("txmgr.commits"), dc("txmgr.aborts")
	set("txmgr.abort_ratio", ratio(ta, tc+ta), "%.0f aborts / %.0f attempts", ta, tc+ta)
	h := a.reg.Histograms
	set("txmgr.validate_p50_us", h["commit.validate"].P50Us, "%d traced commits (log-bucket histogram)", h["commit.validate"].Count)
	set("txmgr.ts_assign_p50_us", h["commit.ts_assign"].P50Us, "%d traced commits (log-bucket histogram)", h["commit.ts_assign"].Count)

	app, syncs, bytes := dc("txlog.appends"), dc("txlog.syncs"), dc("txlog.appended_bytes")
	set("txlog.writesets_per_sync", ratio(app, syncs), "%.0f appends / %.0f syncs", app, syncs)
	set("txlog.sync_p50_us", h["txlog.sync"].P50Us, "%d syncs since open (log-bucket histogram)", h["txlog.sync"].Count)
	set("txlog.bytes_per_writeset", ratio(bytes, app), "%.0f bytes / %.0f appends", bytes, app)
	set("txlog.retained_records", float64(a.reg.Gauges["txlog.durable_records"]), "gauge at window end")

	probes, negs := dc("bloom.probes_total"), dc("bloom.negatives_total")
	set("kvstore.bloom_probes_per_get", ratio(probes, gets), "%.0f bloom probes / %.0f server gets", probes, gets)
	set("kvstore.bloom_skip_ratio", ratio(negs, probes), "%.0f negatives / %.0f probes", negs, probes)
	ch, cm := dc("blockcache.hits"), dc("blockcache.misses")
	set("kvstore.blockcache_hit_ratio", ratio(ch, ch+cm), "%.0f hits / %.0f lookups", ch, ch+cm)
	mem := float64(a.heat.MemHits - b.heat.MemHits)
	set("kvstore.mem_hit_ratio", ratio(mem, gets), "%.0f memstore hits / %.0f server gets", mem, gets)
	unc, cmp := a.reg.Counters["block.uncompressed_bytes_total"], a.reg.Counters["block.compressed_bytes_total"]
	set("kvstore.compression_ratio", ratio(float64(unc), float64(cmp)), "%d raw / %d stored block bytes since open", unc, cmp)
	compactions := dc("reclaim.compactions")
	created := float64(a.files.created(b.files))
	set("kvstore.flushes", created-compactions, "%.0f store files written - %.0f compactions", created, compactions)
	set("kvstore.compactions", compactions, "region compactions in the window")
	rw := dc("block.uncompressed_bytes_total")
	set("kvstore.rewrite_bytes_per_user_byte", ratio(rw, float64(in.windowBytes)),
		"%.0f store-file bytes written / %d user bytes in the window", rw, in.windowBytes)
	pages := float64(a.heat.Scans - b.heat.Scans)
	set("kvstore.scan_pages_per_scan", ratio(pages, scans), "%.0f scan pages / %.0f scans", pages, scans)

	calls := dn("rpc.server.requests")
	set("rpc.calls_per_op", ratio(calls, ops), "%.0f server requests / %.0f ops", calls, ops)
	var cli, srv float64
	if len(sp.serverGet) > 0 {
		cli, srv = p50us(sp.get), p50us(sp.serverGet)
	}
	set("rpc.client_p50_us", cli, "%d timed remote Txn.Get", len(sp.serverGet))
	set("rpc.server_p50_us", srv, "%d timed RegionServer.Get of the same rows on their node", len(sp.serverGet))
	set("rpc.wire_p50_us", max(cli-srv, 0), "client p50 - server p50: routing, codecs, syscalls, wire")
	bad := dn("rpc.server.errors") + dn("rpc.client.errors") + dn("rpc.client.redials") + dn("rpc.server.inflight_stalls")
	set("rpc.errors_redials_stalls", bad, "errors + redials + inflight stalls, all processes")

	bat := float64(a.ship.ShippedBatches - b.ship.ShippedBatches)
	ent := float64(a.ship.ShippedEntries - b.ship.ShippedEntries)
	byt := float64(a.ship.ShippedBytes - b.ship.ShippedBytes)
	set("replica.entries_per_batch", ratio(ent, bat), "%.0f entries / %.0f batches", ent, bat)
	set("replica.bytes_per_writeset", ratio(byt, ent), "%.0f bytes / %.0f shipped region write-sets", byt, ent)
	set("replica.lag_entries", float64(a.ship.LagEntries), "worst follower lag at window end")
	set("replica.quorum_timeouts", float64(a.ship.QuorumTimeouts-b.ship.QuorumTimeouts), "in the window")

	var recMs, replayed []float64
	for _, ev := range in.fail.events {
		recMs = append(recMs, float64(ev.Duration)/float64(time.Millisecond))
		replayed = append(replayed, float64(ev.WriteSetsReplayed))
	}
	set("core.region_recovery_ms", median(recMs), "median of %d region recoveries", len(recMs))
	set("core.writesets_replayed_per_region", median(replayed), "median of %d region recoveries", len(replayed))
	if in.paced {
		set("obs.tracing_overhead_pct", 0, "not measured: the load is paced")
	} else {
		set("obs.tracing_overhead_pct", in.win.overheadPct, "untraced vs traced slices' ops/s")
	}

	out := make([]metricLine, 0, len(layerSpecs))
	for _, s := range layerSpecs {
		m := vals[s.name]
		m.spec = s
		out = append(out, m)
	}
	return out
}
