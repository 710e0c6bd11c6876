package report

import (
	"fmt"
	"io"
	"time"

	"spfail/internal/measure"
	"spfail/internal/obs"
	"spfail/internal/study"
)

// ResourceTable renders the run's per-stage resource accounting: where
// wall time, allocations, GC work, and peak RSS went. It is deliberately
// NOT part of All — resource numbers vary run to run, and All's output
// is held byte-identical across same-seed runs. Callers print this to a
// diagnostic stream (spfail-study uses stderr).
func ResourceTable(w io.Writer, r *study.Results) {
	if len(r.Resources) == 0 {
		return
	}
	t := &Table{
		Title:   "Resource usage by stage",
		Headers: []string{"Stage", "Wall", "Allocs", "Objects", "Heap Δ", "GC", "Peak RSS"},
	}
	var total obs.StageResources
	for _, sr := range r.Resources {
		name := sr.Stage
		if sr.Replayed {
			name += " (replayed)"
		}
		t.AddRow(name,
			Duration(sr.Wall),
			Bytes(int64(sr.AllocBytes)),
			Count(int(sr.AllocObjects)),
			signedBytes(sr.HeapGrowth),
			Count(int(sr.GCCycles)),
			Bytes(sr.PeakRSS))
		total.Wall += sr.Wall
		total.AllocBytes += sr.AllocBytes
		total.AllocObjects += sr.AllocObjects
		total.HeapGrowth += sr.HeapGrowth
		total.GCCycles += sr.GCCycles
		if sr.PeakRSS > total.PeakRSS {
			total.PeakRSS = sr.PeakRSS
		}
	}
	t.AddRow("total",
		Duration(total.Wall),
		Bytes(int64(total.AllocBytes)),
		Count(int(total.AllocObjects)),
		signedBytes(total.HeapGrowth),
		Count(int(total.GCCycles)),
		Bytes(total.PeakRSS))
	t.Render(w)

	cr := r.CampaignResources
	if len(cr.Shards) == 0 {
		return
	}
	fmt.Fprintf(w, "\nCampaign: %s allocated across %s probes in %s batches\n",
		Bytes(int64(cr.AllocBytes)), Count(int(totalProbes(cr))), Count(int(cr.Batches)))
	st := &Table{
		Title:   "Probe work by shard",
		Headers: []string{"Shard", "Probes", "Busy"},
	}
	for _, s := range cr.Shards {
		st.AddRow(fmt.Sprintf("%d", s.Shard), Count(int(s.Probes)), Duration(s.Wall))
	}
	st.Render(w)
}

func totalProbes(cr measure.Resources) int64 {
	var n int64
	for _, s := range cr.Shards {
		n += s.Probes
	}
	return n
}

// Bytes renders a byte count with a binary-unit suffix.
func Bytes(n int64) string {
	neg := ""
	if n < 0 {
		neg, n = "-", -n
	}
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%s%.2f GiB", neg, float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%s%.1f MiB", neg, float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%s%.1f KiB", neg, float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%s%d B", neg, n)
	}
}

// signedBytes renders a heap delta with an explicit sign.
func signedBytes(n int64) string {
	if n > 0 {
		return "+" + Bytes(n)
	}
	return Bytes(n)
}

// Duration renders a duration at a table-friendly precision.
func Duration(d time.Duration) string {
	switch {
	case d <= 0:
		return "0"
	case d < time.Millisecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	case d < time.Second:
		return fmt.Sprintf("%dms", d.Milliseconds())
	case d < time.Minute:
		return fmt.Sprintf("%.1fs", d.Seconds())
	case d < time.Hour:
		return fmt.Sprintf("%.1fm", d.Minutes())
	default:
		return fmt.Sprintf("%.1fh", d.Hours())
	}
}
