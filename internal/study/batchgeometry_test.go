package study_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"spfail/internal/measure"
	"spfail/internal/population"
	"spfail/internal/report"
	"spfail/internal/study"
	"spfail/internal/trace"
)

// TestBatchGeometryDeterminism pins the invariant that batch size is a
// wall-time concern only. Probe pacing runs on per-probe frame clocks
// anchored at the pass's asOf, so repartitioning the address list — how
// many hosts one wave makes resident, which -batch trades against memory
// — must not move a single byte of the report or the trace JSONL.
func TestBatchGeometryDeterminism(t *testing.T) {
	render := func(batch, concurrency int) ([]byte, []byte) {
		t.Helper()
		spec := population.DefaultSpec()
		spec.Scale = 0.003
		spec.Seed = 7
		var traceBuf bytes.Buffer
		res, err := study.Run(context.Background(), study.Config{
			Config: measure.Config{
				Concurrency: concurrency,
				BatchSize:   batch,
				Trace:       trace.New(&traceBuf, trace.Options{Seed: spec.Seed}),
			},
			Spec:     spec,
			Interval: 4 * 24 * time.Hour,
		})
		if err != nil {
			t.Fatalf("study run (batch=%d conc=%d): %v", batch, concurrency, err)
		}
		var buf bytes.Buffer
		report.All(&buf, res)
		return buf.Bytes(), traceBuf.Bytes()
	}
	refReport, refTrace := render(400, 64)
	for _, alt := range []struct {
		name               string
		batch, concurrency int
	}{
		{"quartered-batch", 100, 64},
		{"small-batch-low-concurrency", 25, 8},
	} {
		gotReport, gotTrace := render(alt.batch, alt.concurrency)
		if !bytes.Equal(refReport, gotReport) {
			t.Errorf("%s: report bytes differ from batch=400 run", alt.name)
		}
		if !bytes.Equal(refTrace, gotTrace) {
			t.Errorf("%s: trace bytes differ from batch=400 run", alt.name)
		}
	}
}
