package obs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"spfail/internal/clock"
	"spfail/internal/telemetry"
)

// budgetInterval is the watchdog's poll cadence.
const budgetInterval = 250 * time.Millisecond

// maxProfiles bounds automatic heap-profile capture per run.
const maxProfiles = 3

// Budget is a resident-set-size envelope for a run. Zero limits are
// unenforced; a Budget with neither limit set is disabled.
type Budget struct {
	// SoftRSS, when > 0, becomes the Go runtime's soft memory limit
	// (debug.SetMemoryLimit) while the watchdog runs, so the collector
	// works harder instead of letting the heap grow past it. Polls that
	// still find RSS above it count as soft breaches and capture a heap
	// profile into ProfileDir.
	SoftRSS int64
	// HardRSS, when > 0, is the failure threshold: above it the run is
	// cancelled with a *BudgetError instead of waiting for the OOM killer.
	HardRSS int64
	// ProfileDir, when non-empty, receives heap-NNN.pprof captures on
	// soft breaches (at most three per run). Studies point it at the
	// checkpoint directory.
	ProfileDir string
}

// Enabled reports whether the budget enforces anything.
func (b Budget) Enabled() bool { return b.SoftRSS > 0 || b.HardRSS > 0 }

// ErrBudgetExceeded is the sentinel all hard-breach errors wrap.
var ErrBudgetExceeded = errors.New("memory budget exceeded")

// BudgetError reports a hard RSS breach.
type BudgetError struct {
	// RSS is the observed resident set; Limit the configured HardRSS.
	RSS, Limit int64
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("obs: memory budget exceeded: rss %d bytes over hard limit %d bytes", e.RSS, e.Limit)
}

// Unwrap ties BudgetError to ErrBudgetExceeded for errors.Is.
func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// Watchdog enforces a Budget: the soft limit is handed to the Go runtime,
// and a wall-clock goroutine polls RSS to count soft breaches and to
// cancel the run on a hard one.
//
// Budget metrics (budget.soft_breaches, budget.hard_breaches,
// budget.profiles_captured) land in the registry; see docs/telemetry.md.
type Watchdog struct {
	budget    Budget
	reg       *telemetry.Registry
	cancelRun context.CancelCauseFunc

	// profiles and hardFired are touched only by poll, which runs on the
	// polling goroutine.
	profiles  int
	hardFired bool

	prevLimit int64
	stop      context.CancelFunc
	done      chan struct{}
}

// NewWatchdog builds a watchdog for b publishing breach counters into
// reg. On a hard breach it calls cancelRun (when non-nil) with the
// *BudgetError as the cause.
func NewWatchdog(b Budget, reg *telemetry.Registry, cancelRun context.CancelCauseFunc) *Watchdog {
	return &Watchdog{budget: b, reg: reg, cancelRun: cancelRun}
}

// poll takes one enforcement step; the background loop repeats it.
func (w *Watchdog) poll() {
	rss := readRSS()
	if w.budget.HardRSS > 0 && rss > w.budget.HardRSS {
		if !w.hardFired {
			w.hardFired = true
			w.reg.Counter("budget.hard_breaches").Inc()
			if w.cancelRun != nil {
				w.cancelRun(&BudgetError{RSS: rss, Limit: w.budget.HardRSS})
			}
		}
		return
	}
	if w.budget.SoftRSS > 0 && rss > w.budget.SoftRSS {
		w.reg.Counter("budget.soft_breaches").Inc()
		w.captureProfile()
	}
}

// captureProfile writes a numbered heap profile into ProfileDir, up to
// maxProfiles per run. Failures are recorded (budget.profile_errors) and
// otherwise ignored: profiling is diagnostics, not control flow.
func (w *Watchdog) captureProfile() {
	if w.budget.ProfileDir == "" || w.profiles >= maxProfiles {
		return
	}
	w.profiles++
	name := filepath.Join(w.budget.ProfileDir, fmt.Sprintf("heap-%03d.pprof", w.profiles))
	f, err := os.Create(name)
	if err != nil {
		w.reg.Counter("budget.profile_errors").Inc()
		return
	}
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		w.reg.Counter("budget.profile_errors").Inc()
		return
	}
	w.reg.Counter("budget.profiles_captured").Inc()
}

// Start installs the soft limit as the runtime memory limit and launches
// the polling loop; it is a no-op for a disabled budget.
func (w *Watchdog) Start() {
	if !w.budget.Enabled() || w.stop != nil {
		return
	}
	if w.budget.SoftRSS > 0 {
		w.prevLimit = debug.SetMemoryLimit(w.budget.SoftRSS)
	}
	ctx, stop := context.WithCancel(context.Background())
	w.stop = stop
	done := make(chan struct{})
	w.done = done
	go func() {
		defer close(done)
		// One immediate check so even a run shorter than the poll interval
		// enforces its budget at least once (Stop waits on this goroutine,
		// so the check is sequenced before the run reports its metrics).
		w.poll()
		for (clock.Real{}).Sleep(ctx, budgetInterval) == nil {
			w.poll()
		}
	}()
}

// Stop ends the polling loop and restores the previous memory limit.
func (w *Watchdog) Stop() {
	if w.stop == nil {
		return
	}
	w.stop()
	<-w.done
	w.stop = nil
	if w.budget.SoftRSS > 0 {
		debug.SetMemoryLimit(w.prevLimit)
	}
}

// ParseBytes parses a human byte size: a number with an optional binary
// ("512MiB", "2g") or decimal ("500MB") suffix; a bare number is bytes.
// Single-letter suffixes are binary, matching how memory limits are
// usually meant.
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToLower(s))
	if t == "" {
		return 0, fmt.Errorf("obs: empty byte size")
	}
	mult := float64(1)
	for _, suf := range []struct {
		tag string
		m   float64
	}{
		{"kib", 1 << 10}, {"mib", 1 << 20}, {"gib", 1 << 30}, {"tib", 1 << 40},
		{"kb", 1e3}, {"mb", 1e6}, {"gb", 1e9}, {"tb", 1e12},
		{"k", 1 << 10}, {"m", 1 << 20}, {"g", 1 << 30}, {"t", 1 << 40},
		{"b", 1},
	} {
		if strings.HasSuffix(t, suf.tag) {
			mult = suf.m
			t = strings.TrimSpace(strings.TrimSuffix(t, suf.tag))
			break
		}
	}
	v, err := strconv.ParseFloat(t, 64)
	v *= mult
	// 2^63 is the first float64 past MaxInt64; the negated test also
	// rejects NaN, and infinities fail it like any other huge value.
	if err != nil || !(v >= 0 && v < 1<<63) {
		return 0, fmt.Errorf("obs: bad byte size %q", s)
	}
	return int64(v), nil
}
