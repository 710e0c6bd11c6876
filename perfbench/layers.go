package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"spfail/internal/measure"
	"spfail/internal/study"
	"spfail/internal/telemetry"
)

// layerMetrics names every per-layer metric a traced run prints, with its
// unit. A workload that does not exercise a layer reports 0 for it;
// README.md maps each metric to the end-to-end metric and workload it
// should move.
var layerMetrics = []struct{ name, unit string }{
	{"population.generate_s", "s"},
	{"population.domains", "count"},
	{"population.addrs", "count"},
	{"study.resolve_s", "s"},
	{"study.initial_s", "s"},
	{"study.rounds_s", "s"},
	{"study.snapshot_s", "s"},
	{"study.round_wall_p50_ms", "ms"},
	{"study.rounds_over_1s", "count"},
	{"study.round_alloc_mib", "MiB"},
	{"study.round_heap_growth_mib", "MiB"},
	{"measure.resolve_s", "s"},
	{"measure.campaign_s", "s"},
	{"measure.batch_wall_p50_ms", "ms"},
	{"measure.inflight_max", "count"},
	{"measure.shard_busy_s", "s"},
	{"measure.shard_busy_skew", "ratio"},
	{"measure.alloc_per_probe_kib", "KiB"},
	{"core.transactions_per_probe", "ratio"},
	{"core.greylist_waits_per_probe", "ratio"},
	{"core.measured_frac", "frac"},
	{"core.verdict_p50_us", "us"},
	{"core.verdict_p999_us", "us"},
	{"spf.self_frac", "frac"},
	{"spf.lookups_per_verdict", "ratio"},
	{"dnsclient.lookup_p50_us", "us"},
	{"dnsclient.lookup_p999_us", "us"},
	{"dnsclient.pipeline_coalesced_frac", "frac"},
	{"dnsserver.queries_per_op", "ratio"},
	{"dnsserver.template_hit_frac", "frac"},
	{"smtp.sessions_per_probe", "ratio"},
	{"smtp.dial_failures", "count"},
	{"smtp.cmd_failures", "count"},
	{"checkpoint.commits", "count"},
	{"checkpoint.commit_p50_ms", "ms"},
	{"checkpoint.store_mib", "MiB"},
	{"checkpoint.resume_s", "s"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.alloc_gib", "GiB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.heap_live_peak_mib", "MiB"},
	{"trace.overhead_s", "s"},
}

const mib = 1 << 20

// ratio divides, reading 0 for an empty base.
func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// quantile returns the q-quantile of ds by the nearest-rank rule.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// commonLayers fills the metrics every workload reports from its
// telemetry registry and the Go runtime.
func (c *child) commonLayers(reg *telemetry.Registry, ops int) {
	snap := reg.Snapshot()
	cn := func(name string) float64 { return float64(snap.Counters[name]) }
	l := c.layer
	l["population.generate_s"] = sum(c.rec.durations("population.generate")).Seconds()
	l["dnsclient.pipeline_coalesced_frac"] = ratio(cn("dns.pipeline.coalesced"), cn("dns.pipeline.questions"))
	l["dnsserver.queries_per_op"] = ratio(cn("dns.server.queries"), float64(ops))
	l["dnsserver.template_hit_frac"] = ratio(cn("dns.server.template_hits"), cn("dns.server.queries"))
	if probes := cn("probe.total"); probes > 0 {
		l["core.transactions_per_probe"] = ratio(cn("probe.transactions"), probes)
		l["core.greylist_waits_per_probe"] = ratio(cn("probe.greylist_waits"), probes)
		l["core.measured_frac"] = ratio(cn("probe.outcome.spf-measured"), probes)
		l["smtp.sessions_per_probe"] = ratio(cn("smtp.client.sessions"), probes)
	}
	l["smtp.dial_failures"] = cn("smtp.client.dial_failures")
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "smtp.client.cmd_failures.") {
			l["smtp.cmd_failures"] += float64(v)
		}
	}
	l["checkpoint.commits"] = cn("checkpoint.store.commits")
	l["checkpoint.store_mib"] = cn("checkpoint.store.bytes") / mib

	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	l["runtime.alloc_gib"] = float64(samples[0].Value.Uint64()) / (1 << 30)
	l["runtime.gc_cycles"] = float64(samples[1].Value.Uint64())
	l["runtime.gc_cpu_frac"] = ratio(samples[2].Value.Float64(), samples[3].Value.Float64())
	l["runtime.heap_live_peak_mib"] = float64(c.samp.heapPeak) / mib
}

// campaignLayers fills the campaign metrics from the campaign's resource
// table and in-flight gauge.
func (c *child) campaignLayers(reg *telemetry.Registry, cr measure.Resources, probes int) {
	l := c.layer
	l["measure.inflight_max"] = float64(reg.Gauge("campaign.inflight").Max())
	var busy, top time.Duration
	for _, s := range cr.Shards {
		busy += s.Wall
		top = max(top, s.Wall)
	}
	l["measure.shard_busy_s"] = busy.Seconds()
	if n := len(cr.Shards); n > 0 {
		l["measure.shard_busy_skew"] = ratio(top.Seconds(), busy.Seconds()/float64(n))
	}
	l["measure.alloc_per_probe_kib"] = ratio(float64(cr.AllocBytes)/1024, float64(probes))
	l["measure.batch_wall_p50_ms"] = float64(quantile(c.rec.durations("measure.batch"), 0.5)) / float64(time.Millisecond)
}

// measureSpans fills the scan's resolve and campaign spans.
func (c *child) measureSpans() {
	c.layer["measure.resolve_s"] = sum(c.rec.durations("measure.resolve")).Seconds()
	c.layer["measure.campaign_s"] = sum(c.rec.durations("measure.campaign")).Seconds()
}

// studyLayers fills the study's stage, round and commit metrics.
func (c *child) studyLayers(res *study.Results, reg *telemetry.Registry, h *studyHooks) {
	l := c.layer
	stage := func(name string) float64 { return sum(c.rec.durations("study.stage." + name)).Seconds() }
	rounds := c.rec.prefixDurations("study.stage.round-")
	l["study.resolve_s"] = stage("resolve")
	l["study.initial_s"] = stage("initial")
	l["study.rounds_s"] = sum(rounds).Seconds()
	l["study.snapshot_s"] = stage("snapshot")
	l["study.round_wall_p50_ms"] = float64(quantile(rounds, 0.5)) / float64(time.Millisecond)
	for _, d := range rounds {
		if d > time.Second {
			l["study.rounds_over_1s"]++
		}
	}
	var alloc, growth float64
	var n int
	for _, r := range res.Resources {
		if strings.HasPrefix(r.Stage, "round-") {
			alloc += float64(r.AllocBytes)
			growth += float64(r.HeapGrowth)
			n++
		}
	}
	l["study.round_alloc_mib"] = ratio(alloc/mib, float64(n))
	l["study.round_heap_growth_mib"] = ratio(growth/mib, float64(n))
	probes := int(reg.Counter("probe.total").Value())
	l["measure.resolve_s"] = sum(c.rec.durations("measure.resolve")).Seconds()
	l["measure.campaign_s"] = stage("initial") + l["study.rounds_s"] + stage("snapshot")
	c.campaignLayers(reg, res.CampaignResources, probes)
	l["checkpoint.commit_p50_ms"] = float64(quantile(c.rec.durations("checkpoint.commit"), 0.5)) / float64(time.Millisecond)
	c.commonLayers(reg, probes)
}

// spoofLayers fills the verdict and resolver-call metrics from the spans
// of the traced survey.
func (c *child) spoofLayers() {
	l := c.layer
	verdicts := c.rec.durations("core.verdict")
	lookups := c.rec.prefixDurations("dnsclient.lookup_")
	l["core.verdict_p50_us"] = float64(quantile(verdicts, 0.5)) / float64(time.Microsecond)
	l["core.verdict_p999_us"] = float64(quantile(verdicts, 0.999)) / float64(time.Microsecond)
	l["dnsclient.lookup_p50_us"] = float64(quantile(lookups, 0.5)) / float64(time.Microsecond)
	l["dnsclient.lookup_p999_us"] = float64(quantile(lookups, 0.999)) / float64(time.Microsecond)
	l["spf.self_frac"] = ratio(c.rec.selfOf("core.verdict").Seconds(), sum(verdicts).Seconds())
	l["spf.lookups_per_verdict"] = ratio(float64(len(lookups)), float64(len(verdicts)))
	l["measure.campaign_s"] = sum(c.rec.durations("measure.spoof_survey")).Seconds()
}

// sampler tracks the highest goroutine count and live heap while a pass
// runs, polling every few milliseconds from its own goroutine.
type sampler struct {
	goroutinesPeak int
	heapPeak       uint64

	stopc chan struct{}
	wg    sync.WaitGroup
}

const sampleEvery = 10 * time.Millisecond

func (s *sampler) start() {
	s.stopc = make(chan struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			s.goroutinesPeak = max(s.goroutinesPeak, runtime.NumGoroutine())
			metrics.Read(heap)
			s.heapPeak = max(s.heapPeak, heap[0].Value.Uint64())
			select {
			case <-s.stopc:
				return
			case <-t.C:
			}
		}
	}()
}

// stop ends sampling and waits for the sampler goroutine, after which the
// peaks are safe to read.
func (s *sampler) stop() {
	if s.stopc == nil {
		return
	}
	close(s.stopc)
	s.wg.Wait()
	s.stopc = nil
}
