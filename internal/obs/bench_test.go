package obs

import (
	"testing"
	"time"

	"spfail/internal/clock"
	"spfail/internal/telemetry"
)

// BenchmarkRuntimeSample measures one collector poll: a runtime/metrics
// read plus publishing every runtime.* instrument. The sampler runs once
// a second inside studies, so its own allocation footprint must stay
// flat — CI gates allocs/op on this benchmark.
func BenchmarkRuntimeSample(b *testing.B) {
	reg := telemetry.New()
	c := NewCollector(reg, clock.Real{}, time.Second)
	c.Sample() // warm: histogram buckets and prev slices allocate once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Sample()
	}
	b.StopTimer()
	b.ReportMetric(float64(c.PeakRSS()), "peak-rss-bytes")
	if testing.AllocsPerRun(10, func() { c.Sample() }) > 8 {
		b.Fatal("Collector.Sample allocates in steady state")
	}
}

// BenchmarkStageProbe measures a full Begin/End stage-attribution pair,
// the per-stage overhead the study runner adds at each commit.
func BenchmarkStageProbe(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := BeginStage(nil)
		_ = p.End("bench")
	}
}
