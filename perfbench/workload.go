package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"spfail/internal/clock"
	"spfail/internal/core"
	"spfail/internal/measure"
	"spfail/internal/mta"
	"spfail/internal/population"
	"spfail/internal/report"
	"spfail/internal/retry"
	"spfail/internal/spf"
	"spfail/internal/study"
	"spfail/internal/telemetry"
)

// workloadDef is one named workload: the pass it runs, its input size, the
// passes a run always completes and, for a study, how many probes run at
// once.
type workloadDef struct {
	kind        string // "study", "scan" or "spoof"
	scale       float64
	minPasses   int
	concurrency int // simultaneous SMTP probes; 0 keeps the paper's 250
}

// workloads holds every workload. One pass varies by 10–20% in wall time,
// so a run reports the median of several, and study and spoof are sized
// for several to fit in a run. scan stays at scale 0.2, the size at which
// its known same-seed output defect shows. study-c32 is the study with 32
// probes at once: at 250 the DNS server's 64-datagram UDP inbox overflows
// in bursts, which stalls rounds for the one-second DNS timeout and can
// change outcomes from run to run; at 32 it does not overflow. README.md
// has the figures behind these choices.
var workloads = map[string]workloadDef{
	"study":     {kind: "study", scale: 0.02, minPasses: 3},
	"study-c32": {kind: "study", scale: 0.02, minPasses: 3, concurrency: 32},
	"scan":      {kind: "scan", scale: 0.2, minPasses: 1},
	"spoof":     {kind: "spoof", scale: 0.05, minPasses: 3},
}

// spoofPackWeight is the share of domains each of the nine scenario packs
// takes over in the spoof world.
const spoofPackWeight = 0.08

// ioTimeout is the per-probe SMTP I/O timeout; it matches the study's own
// default because simulated runs spend it in real time.
const ioTimeout = 5 * time.Second

// iteration is what one child process measures for one pass of a
// workload. Times are seconds.
type iteration struct {
	Wall     float64 `json:"wall_s"`
	Setup    float64 `json:"setup_s"`
	Ops      int     `json:"ops"`
	Expected int     `json:"expected"` // operations the input calls for

	GoroutinesPeak int                `json:"goroutines_peak"`
	Layer          map[string]float64 `json:"layer,omitempty"`
	SelfTimes      []layerTime        `json:"self_times,omitempty"`
}

// child is one process's share of a run: a workload pass (or, for the
// study, the resume of one) with its hooks and the files it writes.
type child struct {
	def    workloadDef
	seed   int64
	scale  float64
	dir    string    // per-iteration directory for outputs and the checkpoint store
	rec    *recorder // nil when untraced
	resume bool
	samp   *sampler
	layer  map[string]float64
}

func worldSpec(workload string, scale float64, seed int64) population.Spec {
	s := population.DefaultSpec()
	s.Scale = scale
	s.Seed = seed
	if workload == "spoof" {
		for _, name := range population.PackNames() {
			s.Scenarios = append(s.Scenarios, population.ScenarioPackRef{Name: name, Weight: spoofPackWeight})
		}
	}
	return s
}

func (c *child) run(ctx context.Context) (*iteration, error) {
	switch c.def.kind {
	case "study":
		if c.resume {
			return c.runResume(ctx)
		}
		return c.runStudy(ctx)
	case "scan":
		return c.runScan(ctx)
	case "spoof":
		return c.runSpoof(ctx)
	}
	return nil, fmt.Errorf("unknown workload kind %q", c.def.kind)
}

func (c *child) studyConfig(reg *telemetry.Registry) study.Config {
	return study.Config{
		Spec:          worldSpec("study", c.scale, c.seed),
		CheckpointDir: filepath.Join(c.dir, "ckpt"),
		Config:        measure.Config{Metrics: reg, Concurrency: c.def.concurrency},
	}
}

// runStudy runs the whole longitudinal study with checkpointing on. In a
// traced pass the Progress, Observe and Kill hooks turn into stage, batch
// and commit spans; the untraced pass installs only Progress, whose first
// call ends set-up.
func (c *child) runStudy(ctx context.Context) (*iteration, error) {
	if c.rec != nil {
		// World generation and target resolution run inside study.Run,
		// out of reach of the benchmark's spans: time them on a rig of
		// the same world before the study starts.
		if err := c.resolveAlone(ctx); err != nil {
			return nil, err
		}
	}
	reg := telemetry.New()
	cfg := c.studyConfig(reg)
	var setupEnd time.Time
	h := &studyHooks{rec: c.rec, batch: measure.DefaultConfig().BatchSize}
	cfg.Progress = func(string) {
		// The first call announces target resolution: set-up is over.
		if setupEnd.IsZero() {
			setupEnd = time.Now()
			h.stageStart = setupEnd
		}
	}
	if c.rec != nil {
		cfg.Observe = h.observe
		cfg.Kill = h.kill
	}
	start := time.Now()
	h.root = c.rec.open("study.run", -1, start)
	c.samp.start()
	res, err := study.Run(ctx, cfg)
	c.samp.stop()
	end := time.Now()
	if err != nil {
		return nil, err
	}
	c.rec.add("study.setup", h.root, start, setupEnd)
	h.finish(end)
	c.rec.close(h.root, end)
	it := &iteration{Wall: end.Sub(start).Seconds(), Setup: setupEnd.Sub(start).Seconds()}
	ops := appendOutcomes(nil, "initial", res.Initial)
	for i, r := range res.Rounds {
		ops = appendOutcomes(ops, fmt.Sprintf("round-%03d", i), r.Results)
	}
	ops = appendOutcomes(ops, "snapshot", res.Snapshot)
	it.Ops = len(ops)
	// Every executed probe must have left exactly one outcome behind.
	it.Expected = int(reg.Counter("probe.total").Value())
	if err := writeLines(filepath.Join(c.dir, "ops"), ops); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(c.dir, "report"), studyReport(res, c.scale, c.seed), 0o644); err != nil {
		return nil, err
	}
	if c.rec != nil {
		c.studyLayers(res, reg, h)
	}
	return it, nil
}

// resolveAlone builds a rig for the pass's world and resolves every
// domain once, recording the population, rig and resolve spans.
func (c *child) resolveAlone(ctx context.Context) error {
	rig, sim, err := c.setupRig(ctx, telemetry.New(), -1)
	if err != nil {
		return err
	}
	defer sim.Close()
	defer rig.Close()
	names := make([]string, len(rig.World.Domains))
	for i, d := range rig.World.Domains {
		names[i] = d.Name
	}
	return onSim(ctx, sim, func() error {
		t0 := time.Now()
		rig.ResolveTargets(ctx, names)
		c.rec.add("measure.resolve", -1, t0, time.Now())
		return nil
	})
}

// runResume reruns the study from the completed store the previous child
// left in the same directory: every stage replays from its segment.
func (c *child) runResume(ctx context.Context) (*iteration, error) {
	cfg := c.studyConfig(telemetry.New())
	cfg.Resume = true
	start := time.Now()
	res, err := study.Run(ctx, cfg)
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(c.dir, "resume-report"), studyReport(res, c.scale, c.seed), 0o644); err != nil {
		return nil, err
	}
	return &iteration{Wall: wall.Seconds()}, nil
}

// studyReport renders the report exactly as cmd/spfail-study prints it.
func studyReport(res *study.Results, scale float64, seed int64) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "SPFail reproduction — scale %.3f, seed %d\n", scale, seed)
	fmt.Fprintf(&b, "domains: %s   addresses: %s   initially vulnerable: %s addrs / %s domains\n\n",
		report.Count(len(res.World.Domains)),
		report.Count(len(res.World.Hosts)),
		report.Count(len(res.VulnAddrs)),
		report.Count(len(res.VulnDomains)))
	report.All(&b, res)
	return b.Bytes()
}

// studyHooks turns the study's observer hooks into spans. Stage spans run
// from one commit point to the next; batch spans split a measurement
// stage at every batch-size-th delivered outcome; a commit span runs from
// the stage's last delivered outcome to its commit point. The study calls
// its hooks from its one runner goroutine, one at a time, and Run returns
// only after that goroutine is done, so the fields need no lock.
type studyHooks struct {
	rec   *recorder
	batch int
	root  int32

	stageStart time.Time
	delivered  int       // outcomes delivered in the current stage
	batchStart time.Time // start of the open batch span
	last       time.Time // time of the last delivered outcome
	batches    [][2]time.Time
	stages     []stageSpan
}

type stageSpan struct {
	name       string
	start, end time.Time
	batches    [][2]time.Time
}

func (h *studyHooks) observe(_ string, _ netip.Addr, _ core.Outcome) {
	now := time.Now()
	if h.delivered == 0 {
		h.batchStart = h.stageStart
	} else if h.delivered%h.batch == 0 {
		h.batches = append(h.batches, [2]time.Time{h.batchStart, h.last})
		h.batchStart = h.last
	}
	h.delivered++
	h.last = now
}

func (h *studyHooks) kill(point string) bool {
	name, ok := strings.CutPrefix(point, "commit:")
	if !ok {
		return false
	}
	now := time.Now()
	if h.delivered > 0 {
		h.batches = append(h.batches, [2]time.Time{h.batchStart, h.last})
	}
	h.stages = append(h.stages, stageSpan{name: name, start: h.stageStart, end: now, batches: h.batches})
	h.stageStart, h.delivered, h.batches = now, 0, nil
	return false
}

// finish records the stage spans with their batches and commit as
// children, and the aggregation that follows the last commit.
func (h *studyHooks) finish(end time.Time) {
	for _, st := range h.stages {
		id := h.rec.add("study.stage."+st.name, h.root, st.start, st.end)
		for _, b := range st.batches {
			h.rec.add("measure.batch", id, b[0], b[1])
		}
		if n := len(st.batches); n > 0 {
			h.rec.add("checkpoint.commit", id, st.batches[n-1][1], st.end)
		}
	}
	h.rec.add("study.aggregate", h.root, h.stageStart, end)
}

// appendOutcomes appends one line per probe of a stage, in address order.
func appendOutcomes(ops []string, stage string, m map[netip.Addr]core.Outcome) []string {
	addrs := make([]netip.Addr, 0, len(m))
	for a := range m {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
	for _, a := range addrs {
		ops = append(ops, stage+" "+a.String()+"\t"+outcomeKey(m[a]))
	}
	return ops
}

// outcomeKey renders everything a probe concluded about a host. The probe
// labels, random per probe, are replaced by "#" wherever the observed
// expansions echo them, so equal conclusions render equally.
func outcomeKey(o core.Outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%t|%t|%t|%t|%s|%v|%s|%s|%d|%s",
		o.Status, o.Method, o.NoMsgRan, o.BlankMsgRan,
		o.Observation.PolicyFetched, o.Observation.LivenessSeen,
		strings.Join(o.Observation.Patterns, ","), o.Observation.Classes,
		o.FailStage, o.Username, o.Attempts, o.FailReason)
	if o.Err != nil {
		b.WriteString("|err=")
		b.WriteString(o.Err.Error())
	}
	s := b.String()
	for _, id := range o.IDs {
		s = strings.ReplaceAll(s, id, "#")
	}
	return s
}

// setupRig generates the world and starts the rig on a simulated clock:
// the set-up every scan and spoof pass pays before its first operation.
func (c *child) setupRig(ctx context.Context, reg *telemetry.Registry, parent int32) (*measure.Rig, *clock.Sim, error) {
	spec := worldSpec(c.def.kind, c.scale, c.seed)
	t0 := time.Now()
	world, err := population.Generate(spec)
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	sim := clock.NewSim(population.TInitial)
	rig, err := measure.NewRigFromOptions(ctx, measure.RigOptions{
		World:    world,
		Clock:    sim,
		Metrics:  reg,
		DNSRetry: retry.Policy{Seed: spec.Seed},
	})
	if err != nil {
		sim.Close()
		return nil, nil, err
	}
	t2 := time.Now()
	c.rec.add("population.generate", parent, t0, t1)
	c.rec.add("measure.rig_start", parent, t1, t2)
	if c.rec != nil {
		c.layer["population.domains"] = float64(len(world.Domains))
		c.layer["population.addrs"] = float64(len(world.Hosts))
	}
	return rig, sim, nil
}

// onSim runs fn on a goroutine the simulated clock accounts for, as every
// caller of the rig's resolvers and campaigns must, and waits for it.
func onSim(ctx context.Context, sim *clock.Sim, fn func() error) error {
	done := make(chan error, 1)
	clock.Go(sim, func() { done <- fn() })
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runScan resolves every domain of a scale-0.2 world and probes every
// distinct address once, the way the study's initial measurement does.
func (c *child) runScan(ctx context.Context) (*iteration, error) {
	reg := telemetry.New()
	start := time.Now()
	root := c.rec.open("scan.run", -1, start)
	c.samp.start()
	rig, sim, err := c.setupRig(ctx, reg, root)
	if err != nil {
		return nil, err
	}
	defer sim.Close()
	defer rig.Close()
	setupEnd := time.Now()
	names := make([]string, len(rig.World.Domains))
	for i, d := range rig.World.Domains {
		names[i] = d.Name
	}
	campaign, err := measure.NewCampaign(rig, measure.Config{Suite: "s01", IOTimeout: ioTimeout, Retry: retry.Policy{Seed: c.seed}})
	if err != nil {
		return nil, err
	}
	var addrs []netip.Addr
	ops := make([]string, 0, len(rig.World.Hosts))
	batch := campaign.BatchSize()
	err = onSim(ctx, sim, func() error {
		t0 := time.Now()
		targets := rig.ResolveTargets(ctx, names)
		t1 := time.Now()
		var rep map[netip.Addr]string
		addrs, rep = measure.UniqueAddrs(targets)
		cid := c.rec.open("measure.campaign", root, time.Now())
		bStart, last := time.Now(), time.Time{}
		err := campaign.MeasureAddrsFunc(ctx, addrs, rep, func(a netip.Addr, o core.Outcome) {
			if c.rec != nil {
				now := time.Now()
				if len(ops) > 0 && len(ops)%batch == 0 {
					c.rec.add("measure.batch", cid, bStart, last)
					bStart = last
				}
				last = now
			}
			ops = append(ops, a.String()+"\t"+outcomeKey(o))
		})
		end := time.Now()
		c.rec.add("measure.resolve", root, t0, t1)
		if len(ops) > 0 {
			c.rec.add("measure.batch", cid, bStart, last)
		}
		c.rec.close(cid, end)
		return err
	})
	c.samp.stop()
	end := time.Now()
	c.rec.close(root, end)
	if err != nil {
		return nil, err
	}
	if err := writeLines(filepath.Join(c.dir, "ops"), ops); err != nil {
		return nil, err
	}
	if c.rec != nil {
		c.campaignLayers(reg, campaign.Resources(), len(ops))
		c.measureSpans()
		c.commonLayers(reg, len(ops))
	}
	return &iteration{Wall: end.Sub(start).Seconds(), Setup: setupEnd.Sub(start).Seconds(), Ops: len(ops), Expected: len(addrs)}, nil
}

// runSpoof judges every domain of a scale-0.2 world carrying all nine
// scenario packs. The untraced pass calls measure.SpoofSurvey.Run; the
// traced pass evaluates the same domains in the same order through a
// core.VerdictEvaluator whose resolver is wrapped in a timing layer.
func (c *child) runSpoof(ctx context.Context) (*iteration, error) {
	reg := telemetry.New()
	start := time.Now()
	root := c.rec.open("spoof.run", -1, start)
	c.samp.start()
	rig, sim, err := c.setupRig(ctx, reg, root)
	if err != nil {
		return nil, err
	}
	defer sim.Close()
	defer rig.Close()
	setupEnd := time.Now()
	var verdicts []core.SpoofVerdict
	err = onSim(ctx, sim, func() error {
		if c.rec == nil {
			verdicts = (&measure.SpoofSurvey{Rig: rig}).Run(ctx)
			return nil
		}
		verdicts = c.tracedSurvey(ctx, rig, root)
		return nil
	})
	c.samp.stop()
	end := time.Now()
	c.rec.close(root, end)
	if err != nil {
		return nil, err
	}
	ops := make([]string, len(verdicts))
	for i, v := range verdicts {
		ops[i] = v.Domain + "\t" + verdictKey(v)
	}
	if err := writeLines(filepath.Join(c.dir, "ops"), ops); err != nil {
		return nil, err
	}
	if c.rec != nil {
		c.spoofLayers()
		c.commonLayers(reg, len(ops))
	}
	return &iteration{Wall: end.Sub(start).Seconds(), Setup: setupEnd.Sub(start).Seconds(), Ops: len(ops), Expected: len(rig.World.Domains)}, nil
}

// attackerIP is measure.SpoofSurvey's default forged source address.
var attackerIP = netip.MustParseAddr("203.0.113.66")

// tracedSurvey mirrors measure.SpoofSurvey.Run with a span around every
// verdict and every resolver call. The output check holds it to the same
// verdicts as the untraced pass.
func (c *child) tracedSurvey(ctx context.Context, rig *measure.Rig, root int32) []core.SpoofVerdict {
	tr := &timedResolver{inner: mta.ResolverAdapter{R: rig.Resolver()}, rec: c.rec}
	ev := &core.VerdictEvaluator{Checker: &spf.Checker{Resolver: tr}, HELO: "mx.attacker.example"}
	sid := c.rec.open("measure.spoof_survey", root, time.Now())
	out := make([]core.SpoofVerdict, 0, len(rig.World.Domains))
	for _, d := range rig.World.Domains {
		mailFrom := d.Name
		if pack, ok := population.PackByName(d.Scenario); ok && pack.SpoofMailFromLabel != "" {
			mailFrom = pack.SpoofMailFromLabel + "." + d.Name
		}
		tr.parent = c.rec.open("core.verdict", sid, time.Now())
		out = append(out, ev.Evaluate(ctx, attackerIP, d.Name, mailFrom, d.Scenario))
		c.rec.close(tr.parent, time.Now())
	}
	c.rec.close(sid, time.Now())
	return out
}

// verdictKey renders one spoofing verdict without its domain.
func verdictKey(v core.SpoofVerdict) string {
	v.Domain = ""
	b, err := json.Marshal(v)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	return string(b)
}

// timedResolver records a span around every call the SPF and DMARC
// evaluators make into the resolver stack. Calls are serial: the survey
// evaluates one domain at a time.
type timedResolver struct {
	inner  spf.Resolver
	rec    *recorder
	parent int32
}

func (t *timedResolver) LookupTXT(ctx context.Context, name string) ([]string, error) {
	s := time.Now()
	out, err := t.inner.LookupTXT(ctx, name)
	t.rec.add("dnsclient.lookup_txt", t.parent, s, time.Now())
	return out, err
}

func (t *timedResolver) LookupIP(ctx context.Context, network, name string) ([]netip.Addr, error) {
	s := time.Now()
	out, err := t.inner.LookupIP(ctx, network, name)
	t.rec.add("dnsclient.lookup_ip", t.parent, s, time.Now())
	return out, err
}

func (t *timedResolver) LookupMX(ctx context.Context, name string) ([]spf.MX, error) {
	s := time.Now()
	out, err := t.inner.LookupMX(ctx, name)
	t.rec.add("dnsclient.lookup_mx", t.parent, s, time.Now())
	return out, err
}

func (t *timedResolver) LookupPTR(ctx context.Context, addr netip.Addr) ([]string, error) {
	s := time.Now()
	out, err := t.inner.LookupPTR(ctx, addr)
	t.rec.add("dnsclient.lookup_ptr", t.parent, s, time.Now())
	return out, err
}

func writeLines(path string, lines []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, l := range lines {
		w.WriteString(l)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
