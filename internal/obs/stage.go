package obs

import (
	"runtime/metrics"
	"time"

	"spfail/internal/clock"
)

// StageResources is the resource delta one study stage cost: what the
// process allocated, how the heap moved, how many GC cycles ran, and how
// long the stage took in wall time. It is the row type of the
// report's resource table and is stored alongside (never inside) the
// deterministic stage payload in checkpoint segments.
type StageResources struct {
	// Stage is the stage name ("resolve", "initial", "round-003", …).
	Stage string `json:"stage"`
	// Wall is the stage's wall-clock duration.
	Wall time.Duration `json:"wall_ns"`
	// AllocBytes/AllocObjects are process-wide heap allocations performed
	// during the stage (cumulative-counter deltas; freed memory included).
	AllocBytes   uint64 `json:"alloc_bytes"`
	AllocObjects uint64 `json:"alloc_objects"`
	// HeapGrowth is the change in live heap bytes across the stage —
	// negative when a GC shrank the live set below the starting point.
	HeapGrowth int64 `json:"heap_growth_bytes"`
	// GCCycles is how many collection cycles completed during the stage.
	GCCycles uint64 `json:"gc_cycles"`
	// PeakRSS is the largest resident set observed during the stage: the
	// max of the boundary readings and, when a Collector is polling, its
	// high-water mark over the window.
	PeakRSS int64 `json:"peak_rss_bytes"`
	// Replayed marks rows restored from a checkpoint segment — the
	// resources the stage cost when it originally executed, not in this
	// process.
	Replayed bool `json:"replayed,omitempty"`
}

// StageProbe captures the "before" edge of a stage resource delta. Begin
// it when the stage starts executing, End it at commit.
type StageProbe struct {
	coll *Collector

	samples [4]metrics.Sample

	wallStart time.Time
	alloc0    AllocCounts
	heap0     uint64
	gc0       uint64
	rss0      int64
	peak0     int64
}

const (
	stageSlotHeapLive = iota
	stageSlotGCCycles
	stageSlotAllocBytes
	stageSlotAllocObjects
)

func (p *StageProbe) read() (heap, gc uint64, alloc AllocCounts) {
	if p.samples[0].Name == "" {
		p.samples[stageSlotHeapLive].Name = keyHeapLive
		p.samples[stageSlotGCCycles].Name = keyGCCycles
		p.samples[stageSlotAllocBytes].Name = keyAllocBytes
		p.samples[stageSlotAllocObjects].Name = keyAllocObjects
	}
	metrics.Read(p.samples[:])
	return p.samples[stageSlotHeapLive].Value.Uint64(),
		p.samples[stageSlotGCCycles].Value.Uint64(),
		AllocCounts{
			Bytes:   p.samples[stageSlotAllocBytes].Value.Uint64(),
			Objects: p.samples[stageSlotAllocObjects].Value.Uint64(),
		}
}

// BeginStage snapshots the resource baseline for a stage. coll, when
// non-nil, sharpens PeakRSS with the collector's polled high-water mark.
func BeginStage(coll *Collector) *StageProbe {
	p := &StageProbe{coll: coll}
	p.heap0, p.gc0, p.alloc0 = p.read()
	p.rss0 = readRSS()
	if coll != nil {
		p.peak0 = coll.PeakRSS()
	}
	p.wallStart = clock.Real{}.Now()
	return p
}

// End closes the window and returns the stage's resource delta.
func (p *StageProbe) End(stage string) StageResources {
	heap1, gc1, alloc1 := p.read()
	rss1 := readRSS()
	peak := p.rss0
	if rss1 > peak {
		peak = rss1
	}
	if p.coll != nil {
		if cp := p.coll.PeakRSS(); cp > p.peak0 && cp > peak {
			peak = cp
		}
	}
	return StageResources{
		Stage:        stage,
		Wall:         clock.Real{}.Now().Sub(p.wallStart),
		AllocBytes:   alloc1.Bytes - p.alloc0.Bytes,
		AllocObjects: alloc1.Objects - p.alloc0.Objects,
		HeapGrowth:   int64(heap1) - int64(p.heap0),
		GCCycles:     gc1 - p.gc0,
		PeakRSS:      peak,
	}
}
