package elf

import (
	"sync"

	"provirt/internal/mem"
)

// Layout is the per-image instance-layout metadata every loaded copy of
// an Image shares: GOT geometry, the variable-index -> GOT-slot table,
// the read-only byte census, and the frozen data segment every
// instance's view reads through to. Before it existed, each Instance
// recomputed slot ordinals with an O(vars) scan per lookup — O(vars²)
// per instantiation, paid once per rank per method. At million-VP
// worlds the metadata is computed exactly once per image and shared by
// every rank's instance, which is the "share the invariant parts" half
// of the single-address-space model (μFork, Weaves): only the per-rank
// data delta is private.
type Layout struct {
	// GOTSlots is the number of GOT entries: one per external-linkage
	// variable plus one per function.
	GOTSlots int
	// ExternVars is the number of external-linkage (global/const)
	// variables; function GOT slots start at this ordinal.
	ExternVars int
	// varSlot maps Var.Index to its GOT slot ordinal, -1 for statics
	// (which have no GOT entry — the Swapglobals limitation).
	varSlot []int
	// ROBytes is the read-only portion of the data segment in bytes:
	// const variable cells plus any declared read-only bulk. These are
	// the bytes copy-on-write sharing keeps on shared pages per rank.
	ROBytes uint64
	// base is the data segment as the image file holds it: variable cells
	// at their initialisers, GOT slots and bulk zero. Every instance's
	// data segment is a copy-on-write view of it.
	base *mem.SegmentBase
}

// Layout returns the image's shared instance-layout metadata, computed
// on first use. The result is immutable and safe to share across
// goroutines (harness sweeps instantiate one image from many worlds).
func (img *Image) Layout() *Layout {
	img.layoutOnce.Do(func() {
		l := &Layout{varSlot: make([]int, len(img.Vars))}
		for _, v := range img.Vars {
			if v.Class == ClassGlobal || v.Class == ClassConst {
				l.varSlot[v.Index] = l.ExternVars
				l.ExternVars++
			} else {
				l.varSlot[v.Index] = -1
			}
			if v.Class == ClassConst {
				l.ROBytes += 8
			}
		}
		l.GOTSlots = l.ExternVars + len(img.Funcs)
		ro := l.ROBytes + img.RODataSize
		// The census never exceeds the segment (a builder could declare
		// more RO bulk than data); clamp so sharing math can't underflow.
		if ro > img.DataSize {
			ro = img.DataSize
		}
		l.ROBytes = ro
		init := make([]uint64, len(img.Vars))
		for _, v := range img.Vars {
			init[v.Index] = v.Init
		}
		// A builder may declare less data than the cells and GOT need.
		l.base = mem.FreezeSegment(init, max(img.DataWords(), len(img.Vars)+l.GOTSlots))
		img.layout = l
	})
	return img.layout
}

// VarSlot returns the GOT slot ordinal for a variable index, -1 for
// statics.
func (l *Layout) VarSlot(index int) int { return l.varSlot[index] }

// layoutState is embedded in Image to keep the memo unexported.
type layoutState struct {
	layoutOnce sync.Once
	layout     *Layout
}
