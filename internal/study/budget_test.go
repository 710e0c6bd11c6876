package study_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"spfail/internal/measure"
	"spfail/internal/obs"
	"spfail/internal/population"
	"spfail/internal/report"
	"spfail/internal/study"
	"spfail/internal/trace"
)

func budgetRun(t *testing.T, budget obs.Budget) (*study.Results, []byte, []byte) {
	t.Helper()
	spec := population.DefaultSpec()
	spec.Scale = 0.003
	spec.Seed = 11
	var traceBuf bytes.Buffer
	res, err := study.Run(context.Background(), study.Config{
		Config: measure.Config{
			Concurrency: 32,
			BatchSize:   200,
			Trace:       trace.New(&traceBuf, trace.Options{Seed: spec.Seed}),
		},
		Spec:     spec,
		Interval: 4 * 24 * time.Hour,
		Budget:   budget,
	})
	if err != nil {
		t.Fatalf("study run: %v", err)
	}
	var rep bytes.Buffer
	report.All(&rep, res)
	return res, rep.Bytes(), traceBuf.Bytes()
}

// TestBudgetSoftDegradationDeterminism checks that a run whose soft
// budget is breached immediately — so the runtime memory limit keeps the
// GC running back to back and the watchdog captures heap profiles —
// produces a report and trace byte-identical to the same-seed
// unbudgeted run.
func TestBudgetSoftDegradationDeterminism(t *testing.T) {
	dir := t.TempDir()
	refRes, refReport, refTrace := budgetRun(t, obs.Budget{})
	gotRes, gotReport, gotTrace := budgetRun(t, obs.Budget{
		SoftRSS:    1, // every poll breaches
		ProfileDir: dir,
	})

	if !bytes.Equal(refReport, gotReport) {
		t.Error("report bytes differ between budgeted and unbudgeted runs")
	}
	if !bytes.Equal(refTrace, gotTrace) {
		t.Error("trace bytes differ between budgeted and unbudgeted runs")
	}
	if got := gotRes.Metrics.Counter("budget.soft_breaches").Value(); got == 0 {
		t.Error("soft budget never breached")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	profiles := 0
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "heap-") && strings.HasSuffix(e.Name(), ".pprof") {
			profiles++
		}
	}
	if profiles == 0 {
		t.Error("no heap profile captured on soft breach")
	}
	if refRes.Metrics.Counter("budget.soft_breaches").Value() != 0 {
		t.Error("unbudgeted run recorded soft breaches")
	}
}

// TestBudgetHardBreachFailsRun checks that a hard breach cancels the run
// and Run returns the cancel cause, a structured error instead of an OOM
// kill.
func TestBudgetHardBreachFailsRun(t *testing.T) {
	spec := population.DefaultSpec()
	spec.Scale = 0.003
	spec.Seed = 11
	res, err := study.Run(context.Background(), study.Config{
		Config:   measure.Config{Concurrency: 32, BatchSize: 200},
		Spec:     spec,
		Interval: 4 * 24 * time.Hour,
		Budget:   obs.Budget{HardRSS: 1}, // any live process exceeds this
	})
	if !errors.Is(err, obs.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want wrap of obs.ErrBudgetExceeded", err)
	}
	var be *obs.BudgetError
	if !errors.As(err, &be) || be.Limit != 1 {
		t.Errorf("err = %#v, want *obs.BudgetError with Limit 1", err)
	}
	if got := res.Metrics.Counter("budget.hard_breaches").Value(); got != 1 {
		t.Errorf("budget.hard_breaches = %d, want 1", got)
	}
}

// TestGoroutinePeakBoundedByWorkingSet checks that a study's goroutines
// follow its working set — the simulated hosts of one batch wave plus the
// probe workers — and not its round count: a stopped host must not leave
// a goroutine behind that keeps it reachable until the run ends.
func TestGoroutinePeakBoundedByWorkingSet(t *testing.T) {
	const bound = 3*200 + 4*32 // 3·BatchSize + 4·Concurrency of budgetRun
	stop := make(chan struct{})
	peak := make(chan int)
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		high := 0
		for {
			high = max(high, runtime.NumGoroutine())
			select {
			case <-stop:
				peak <- high
				return
			case <-tick.C:
			}
		}
	}()
	res, _, _ := budgetRun(t, obs.Budget{})
	close(stop)
	got := <-peak
	t.Logf("goroutine peak %d over %d rounds (bound %d)", got, len(res.Rounds), bound)
	if got > bound {
		t.Errorf("goroutine peak = %d over %d rounds, want ≤ %d", got, len(res.Rounds), bound)
	}
}

// TestStageResourceTable checks the per-stage accounting surface: every
// executed stage contributes a row with non-zero deltas, and the
// renderer emits them.
func TestStageResourceTable(t *testing.T) {
	res, _, _ := budgetRun(t, obs.Budget{})
	if len(res.Resources) == 0 {
		t.Fatal("no stage resource rows recorded")
	}
	stages := map[string]bool{}
	for _, sr := range res.Resources {
		stages[sr.Stage] = true
		if sr.Replayed {
			t.Errorf("stage %s marked replayed in a live run", sr.Stage)
		}
		if sr.AllocBytes == 0 || sr.AllocObjects == 0 {
			t.Errorf("stage %s: zero alloc delta (%d bytes / %d objects)",
				sr.Stage, sr.AllocBytes, sr.AllocObjects)
		}
		if sr.Wall <= 0 {
			t.Errorf("stage %s: wall duration %v, want > 0", sr.Stage, sr.Wall)
		}
		if sr.PeakRSS <= 0 {
			t.Errorf("stage %s: peak RSS %d, want > 0", sr.Stage, sr.PeakRSS)
		}
	}
	for _, want := range []string{"resolve", "initial", "round-000", "snapshot"} {
		if !stages[want] {
			t.Errorf("no resource row for stage %q (have %v)", want, stages)
		}
	}
	if len(res.CampaignResources.Shards) == 0 {
		t.Error("campaign shard stats empty")
	}

	var buf bytes.Buffer
	report.ResourceTable(&buf, res)
	out := buf.String()
	for _, want := range []string{"Resource usage by stage", "resolve", "snapshot", "total", "Probe work by shard"} {
		if !strings.Contains(out, want) {
			t.Errorf("ResourceTable output missing %q", want)
		}
	}
}

// TestBudgetResumeAcrossBudgetChange checks that Budget stays outside
// the checkpoint fingerprint: a store written under a tight soft budget
// resumes cleanly in an unbudgeted run, and replayed stages surface
// their originally-recorded resource rows flagged as replayed.
func TestBudgetResumeAcrossBudgetChange(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	spec := population.DefaultSpec()
	spec.Scale = 0.003
	spec.Seed = 11
	cfg := study.Config{
		Config:        measure.Config{Concurrency: 32, BatchSize: 200},
		Spec:          spec,
		Interval:      4 * 24 * time.Hour,
		CheckpointDir: ckpt,
		Budget:        obs.Budget{SoftRSS: 1, ProfileDir: dir},
		Kill: func(point string) bool {
			return point == "commit:initial"
		},
	}
	if _, err := study.Run(context.Background(), cfg); !errors.Is(err, study.ErrKilled) {
		t.Fatalf("first run err = %v, want ErrKilled", err)
	}

	cfg.Budget = obs.Budget{}
	cfg.Kill = nil
	cfg.Resume = true
	res, err := study.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	replayed := 0
	for _, sr := range res.Resources {
		if sr.Replayed {
			replayed++
			if sr.AllocBytes == 0 {
				t.Errorf("replayed stage %s lost its recorded alloc delta", sr.Stage)
			}
		}
	}
	if replayed == 0 {
		t.Error("resume surfaced no replayed resource rows")
	}
}
