package scenario

import "provirt/internal/ampi"

// Row is the result of one executed point, as plain values: nothing in
// it refers back to the world that produced it, so a sweep holds rows,
// never worlds. It is what every consumer reads — a harness figure's
// arithmetic, the serve API's stored payload, `privbench -spec`.
//
// Its JSON is the wire and storage format: marshaled once at execution
// time and served verbatim ever after, so the encoding — not this
// struct — is the compatibility surface. The first eleven columns are
// on every row. The supervised columns appear when the Spec named a
// fault or churn process (Attempts is at least 1 there), so a bare
// point's row is byte-for-byte what it was before supervision reached
// the wire. The figure columns never leave the process: they are
// nonzero on every run, and putting them on the wire would have moved
// every stored row.
type Row struct {
	Workload string `json:"workload"`
	Method   string `json:"method"`
	VPs      int    `json:"vps"`
	Nodes    int    `json:"nodes"`

	// SetupNs is the virtual time privatization setup completed;
	// FinishNs the engine clock when the world went idle. Both are
	// simulated nanoseconds — deterministic, never host time. Under
	// supervision they describe the attempt that ran to completion.
	SetupNs  int64 `json:"setup_ns"`
	FinishNs int64 `json:"finish_ns"`

	Migrations         int    `json:"migrations"`
	MigratedBytes      uint64 `json:"migrated_bytes"`
	MigratedDeltaBytes uint64 `json:"migrated_delta_bytes"`
	SkippedBalances    int    `json:"skipped_balances"`
	// Checkpoints counts snapshots taken, across all attempts (drains
	// included) under supervision.
	Checkpoints int `json:"checkpoints"`

	// Supervised columns (see ft.ElasticReport). TotalNs is the
	// supervisor's one clock: time-to-solution across every attempt.
	// MeanRecoveryNs is the mean rework+downtime per crash and
	// RestoredBytes the snapshot volume restarts read back. NodeTimeNs
	// integrates cluster membership over the run (node-hours =
	// NodeTimeNs / 3600e9); Epochs counts membership changes, split
	// into Drained and Crashed; ReworkNoticedNs and ReworkForcedNs are
	// the work thrown away across drained and forced changes.
	TotalNs         int64  `json:"total_ns,omitempty"`
	Attempts        int    `json:"attempts,omitempty"`
	Recoveries      int    `json:"recoveries,omitempty"`
	MeanRecoveryNs  int64  `json:"mean_recovery_ns,omitempty"`
	RestoredBytes   uint64 `json:"restored_bytes,omitempty"`
	NodeTimeNs      int64  `json:"node_time_ns,omitempty"`
	Epochs          int    `json:"epochs,omitempty"`
	Drained         int    `json:"drained,omitempty"`
	Crashed         int    `json:"crashed,omitempty"`
	ReworkNoticedNs int64  `json:"rework_noticed_ns,omitempty"`
	ReworkForcedNs  int64  `json:"rework_forced_ns,omitempty"`

	// Figure columns, in memory only. ExecNs is the job's elapsed time
	// excluding startup; Switches and SwitchNs sum ULT context switches
	// and the time they took across PEs; LastMigrationNs and
	// LastMigrationBytes describe the final record of the most recent
	// balancing step; PrivBytes is rank 0's privatization storage (see
	// privatizationBytes).
	ExecNs             int64  `json:"-"`
	Switches           uint64 `json:"-"`
	SwitchNs           int64  `json:"-"`
	LastMigrationNs    int64  `json:"-"`
	LastMigrationBytes uint64 `json:"-"`
	PrivBytes          uint64 `json:"-"`
}

// TimeNs is the job's elapsed virtual time: startup plus execution.
func (r Row) TimeNs() int64 { return r.SetupNs + r.ExecNs }

// Execute runs the point and returns its row, plus the workload's
// report function when the Spec named a registered workload that has
// one (it prints the collected program output). Every Spec runs through
// the ft supervisor (RunElastic), which with empty plans runs the world
// once; the supervised columns are filled only when the Spec names a
// fault or churn process.
func (s *Spec) Execute() (Row, func(), error) {
	rep, report, err := s.RunElastic()
	if err != nil {
		return Row{}, nil, err
	}
	row := s.row(rep.World)
	if !s.supervised() {
		return row, report, nil
	}
	row.Checkpoints = rep.Checkpoints
	row.TotalNs = int64(rep.TotalTime)
	row.Attempts = rep.Attempts
	row.Recoveries = len(rep.Recoveries)
	row.MeanRecoveryNs = int64(rep.MeanRecovery())
	for _, rec := range rep.Recoveries {
		row.RestoredBytes += rec.RestoredBytes
	}
	row.NodeTimeNs = int64(rep.NodeSeconds)
	row.Epochs = rep.Epochs()
	for _, rz := range rep.Resizes {
		if rz.Drained {
			row.Drained++
		}
		if rz.Crashed {
			row.Crashed++
		}
	}
	row.ReworkNoticedNs = int64(rep.ReworkNoticed())
	row.ReworkForcedNs = int64(rep.ReworkForced())
	return row, report, nil
}

// row reads a finished world's aggregates.
func (s *Spec) row(w *ampi.World) Row {
	r := Row{
		Workload:           s.Workload,
		Method:             s.Method.String(),
		VPs:                s.VPs,
		Nodes:              s.Machine.Nodes,
		SetupNs:            int64(w.SetupDone),
		FinishNs:           int64(w.Cluster.Engine.Now()),
		Migrations:         w.Migrations,
		MigratedBytes:      w.MigratedBytes,
		MigratedDeltaBytes: w.MigratedDeltaBytes,
		SkippedBalances:    w.SkippedBalances,
		Checkpoints:        w.Checkpoints,
		ExecNs:             int64(w.ExecutionTime()),
		PrivBytes:          privatizationBytes(w),
	}
	for _, sched := range w.Scheds() {
		r.Switches += sched.Switches()
		r.SwitchNs += int64(sched.SwitchTime())
	}
	if recs := w.LastMigrations(); len(recs) > 0 {
		last := recs[len(recs)-1]
		r.LastMigrationNs, r.LastMigrationBytes = int64(last.Duration), last.Bytes
	}
	return r
}

// privatizationBytes is the privatization storage materialized for
// rank 0 (segment copies, TLS blocks, private cells), excluding the ULT
// stack every rank owns regardless of method. The linker-held copies
// are counted for rank 0's whole process, which is rank 0's alone in
// the one-rank worlds the memory figure measures.
func privatizationBytes(w *ampi.World) uint64 {
	rank := w.Ranks[0]
	ctx := rank.Ctx()
	// Heap-resident privatization state (PIE segment copies,
	// swap/manual cells) minus the stack ballast. Subtract what the
	// stack block actually contributes to ResidentBytes — if it were
	// ever shared-backed or ballast-accounted differently, subtracting
	// its nominal Size would underflow the unsigned total.
	var stackResident uint64
	if blk := ctx.Heap.Lookup(ctx.Stack.Addr); blk != nil {
		stackResident = blk.Size - blk.SharedBytes
	}
	bytes := ctx.Heap.ResidentBytes() - stackResident
	// TLS block.
	bytes += uint64(len(ctx.TLS)) * 8
	// Linker-held per-rank copies (PIP namespaces, FS copies).
	for _, h := range w.EnvFor(rank.PE()).Linker.Handles() {
		if h.Namespace != 0 || h.Path != w.Program.Image.Name {
			bytes += h.Inst.Img.TotalSegmentBytes()
		}
	}
	return bytes
}
