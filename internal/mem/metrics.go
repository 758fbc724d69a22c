package mem

import "provirt/internal/obs"

// Host-side snapshot instruments (package obs). Every migration's
// hand-off and every checkpoint's Serialize is a snapshot here, and the
// incremental design's whole value is the gap between full and delta
// bytes, which these counters make observable across a run.
// Package-level with a nil default: an un-instrumented Serialize pays
// one pointer comparison, the trace.Tracer discipline.
type obsMetrics struct {
	// snapshots counts Serialize and Handoff calls; fullBytes and
	// deltaBytes accumulate each snapshot's logical payload vs what
	// actually changed since the previous snapshot (the incremental win
	// is their ratio).
	snapshots  *obs.Counter
	fullBytes  *obs.Counter
	deltaBytes *obs.Counter
	// blocksReused counts clean blocks whose payload was shared
	// copy-on-write with the previous snapshot; blocksCopied counts
	// dirty (or last handed off) blocks that went through the arena.
	blocksReused *obs.Counter
	blocksCopied *obs.Counter
	// arenaBytes accumulates the bytes actually copied through the
	// pooled snapshot arena; a hand-off copies none.
	arenaBytes *obs.Counter
	// granulesMaterialized counts 512 B granules a Segment view copied
	// out of its base when Word first reached them; bytesShared
	// accumulates the segment bytes each view creation and each view copy
	// (AllocSegment, Serialize, Restore) left on the shared base instead of
	// moving — the host side of the modelled full/delta bytes above.
	granulesMaterialized *obs.Counter
	bytesShared          *obs.Counter
}

var metrics obsMetrics

// EnableObs registers the snapshot instruments in r and turns them on
// for every heap in the process; EnableObs(nil) restores the no-op
// state. Call it only while no simulation is running.
func EnableObs(r *obs.Registry) {
	if r == nil {
		metrics = obsMetrics{}
		return
	}
	metrics = obsMetrics{
		snapshots: r.Counter("mem_snapshots_total",
			"heap snapshots: checkpoint serializations, and migration hand-offs, which copy nothing into the arena"),
		fullBytes: r.Counter("mem_snapshot_full_bytes_total",
			"logical payload bytes across all snapshots"),
		deltaBytes: r.Counter("mem_snapshot_delta_bytes_total",
			"payload bytes that changed since each previous snapshot"),
		blocksReused: r.Counter("mem_snapshot_blocks_reused_total",
			"clean blocks shared copy-on-write with the previous snapshot"),
		blocksCopied: r.Counter("mem_snapshot_blocks_copied_total",
			"dirty blocks copied through the snapshot arena"),
		arenaBytes: r.Counter("mem_snapshot_arena_bytes_total",
			"bytes copied through the snapshot arena"),
		granulesMaterialized: r.Counter("mem_segment_granules_materialized_total",
			"512 B copy-on-write segment granules copied out of the image's base on first access by cell pointer"),
		bytesShared: r.Counter("mem_segment_bytes_shared_total",
			"segment bytes left on the image's shared base by view creations and copies"),
	}
}
