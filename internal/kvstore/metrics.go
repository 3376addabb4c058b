package kvstore

import "txkv/internal/obs"

// The store's registry instruments. Each is resolved by name once, when its
// server, client or cache is built, so the read and write paths take no
// registry lock and build no name. Every incarnation that records into one
// registry shares one instrument per name, so a crashed server's counts stay
// in the totals.

// serverMetrics are a region server's instruments.
type serverMetrics struct {
	appliedWriteSets, appliedCells *obs.Counter
	applyLatency                   *obs.Histogram
	scanPages                      *obs.Counter
	scanPageLatency                *obs.Histogram
	flushesSkipped                 *obs.Counter

	// Replication: the follower side and read gating.
	replAppends, replEntriesApplied, replCheckpoints, replPromotions *obs.Counter
	staleEpochRejects, followerReads, followerRejects, leaseRejects  *obs.Counter

	store *storeMetrics // handed to every region the server opens
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	return serverMetrics{
		appliedWriteSets:   reg.Counter("server.applied_writesets"),
		appliedCells:       reg.Counter("server.applied_cells"),
		applyLatency:       reg.Histogram("commit.apply"),
		scanPages:          reg.Counter("server.scan_pages"),
		scanPageLatency:    reg.Histogram("scan.page"),
		flushesSkipped:     reg.Counter("reclaim.flushes_skipped"),
		replAppends:        reg.Counter("replica.appends_applied"),
		replEntriesApplied: reg.Counter("replica.entries_applied"),
		replCheckpoints:    reg.Counter("replica.checkpoints_applied"),
		replPromotions:     reg.Counter("replica.promotions"),
		staleEpochRejects:  reg.Counter("replica.stale_epoch_rejects"),
		followerReads:      reg.Counter("replica.follower_reads"),
		followerRejects:    reg.Counter("replica.follower_rejects"),
		leaseRejects:       reg.Counter("replica.lease_rejects"),
		store:              newStoreMetrics(reg),
	}
}

// storeMetrics are the instruments a region's store files record into:
// bloom outcomes on the read path, block bytes before and after encoding on
// the write path, and store-file retirement.
type storeMetrics struct {
	// bloomProbes counts point-read probes against files carrying a bloom
	// filter; bloomNegatives the probes the filter rejected (the file read
	// was skipped); bloomFalsePositives the probes it passed where the file
	// then held no cell for the coordinate.
	bloomProbes, bloomNegatives, bloomFalsePositives *obs.Counter
	// blockUncompressed and blockCompressed count data-block payload bytes
	// before and after per-block encoding (a raw-fallback frame counts its
	// raw length), so their ratio is the achieved compression ratio.
	blockUncompressed, blockCompressed *obs.Counter
	// filesRetired counts store files (and split reference markers)
	// unlinked after their last reader drained; bytesRetired their logical
	// sizes. The journal bytes behind them are reclaimed later, by DFS log
	// compaction (reclaim.bytes_reclaimed), so the two are kept apart.
	filesRetired, bytesRetired *obs.Counter
	compactions                *obs.Counter
}

func newStoreMetrics(reg *obs.Registry) *storeMetrics {
	return &storeMetrics{
		bloomProbes:         reg.Counter("bloom.probes_total"),
		bloomNegatives:      reg.Counter("bloom.negatives_total"),
		bloomFalsePositives: reg.Counter("bloom.false_positives_total"),
		blockUncompressed:   reg.Counter("block.uncompressed_bytes_total"),
		blockCompressed:     reg.Counter("block.compressed_bytes_total"),
		filesRetired:        reg.Counter("reclaim.files_retired"),
		bytesRetired:        reg.Counter("reclaim.bytes_retired"),
		compactions:         reg.Counter("reclaim.compactions"),
	}
}

// unregisteredStore backs regions opened outside a region server (tools
// and tests): their counts go nowhere.
var unregisteredStore = newStoreMetrics(nil)

// clientMetrics are a routing client's instruments.
type clientMetrics struct {
	masterLookups, layoutHits, layoutMisses *obs.Counter
	gets, getRetries, flushRetries          *obs.Counter
	// scanBatches counts every scan batch; scanContinuations the batches
	// that resumed with a continuation token (every batch after a scan's
	// first).
	scanBatches, scanContinuations *obs.Counter
	// followerBatches counts scan batches a follower copy served;
	// followerFallbacks the batches that tried a follower and fell back to
	// the primary (follower behind the snapshot, or unreachable).
	followerBatches, followerFallbacks *obs.Counter
}

func newClientMetrics(reg *obs.Registry) clientMetrics {
	return clientMetrics{
		masterLookups:     reg.Counter("client.master_lookups"),
		layoutHits:        reg.Counter("client.layout_hits"),
		layoutMisses:      reg.Counter("client.layout_misses"),
		gets:              reg.Counter("client.gets"),
		getRetries:        reg.Counter("client.get_retries"),
		flushRetries:      reg.Counter("client.flush_retries"),
		scanBatches:       reg.Counter("client.scan_batches"),
		scanContinuations: reg.Counter("client.scan_continuations"),
		followerBatches:   reg.Counter("client.follower_batches"),
		followerFallbacks: reg.Counter("client.follower_fallbacks"),
	}
}
