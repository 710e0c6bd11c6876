package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// checkResult is the output check of a run. Every pass's operations are
// compared with a baseline: the committed reference when one exists for
// the workload, seed and scale, otherwise the run's first pass. An
// operation fails when it has no result or its result differs from the
// baseline's.
type checkResult struct {
	correct   bool
	attempted int
	failed    int
	notes     []string
}

// refBase names a workload's reference files for a seed; a scale other
// than the workload's default is part of the name. Workloads of one kind
// share their references: the study's outcomes do not depend on how many
// probes run at once.
func refBase(o options) string {
	def := workloads[o.workload]
	name := fmt.Sprintf("%s-seed%d", def.kind, o.seed)
	if o.scale != def.scale {
		name += fmt.Sprintf("-scale%g", o.scale)
	}
	return filepath.Join(o.refDir, name)
}

// checkPasses compares every pass with the baseline. correct is false when
// a pass's output is malformed, when its resumed study reports differently
// from the study itself, or when a study report differs from the
// baseline's although every probe matched.
func checkPasses(o options, passes []pass) (checkResult, error) {
	cr := checkResult{correct: true}
	base, ref := refBase(o), false
	var baseOut *outputs
	var baseReport []byte
	if !o.writeRef {
		var err error
		baseOut, err = readRef(base + ".ops.gz")
		switch {
		case err == nil:
			ref = true
			if workloads[o.workload].kind == "study" {
				if baseReport, err = os.ReadFile(base + ".report"); err != nil {
					return cr, err
				}
			}
		case errors.Is(err, fs.ErrNotExist):
		default:
			return cr, err
		}
	}
	if ref {
		cr.notes = append(cr.notes, "baseline: reference "+base)
	} else {
		cr.notes = append(cr.notes, "baseline: this run's first pass (no reference for this seed and scale)")
	}
	for i, p := range passes {
		lines, err := readLines(filepath.Join(p.dir, "ops"))
		if err != nil {
			return cr, err
		}
		out, err := parseOutputs(lines)
		if err != nil {
			cr.correct = false
			cr.notes = append(cr.notes, fmt.Sprintf("pass %d: %v", i, err))
			continue
		}
		if baseOut == nil {
			baseOut = out
		}
		attempted, failed, notes := compareOutputs(baseOut, out)
		cr.attempted += attempted
		cr.failed += failed
		for _, n := range notes {
			cr.notes = append(cr.notes, fmt.Sprintf("pass %d: %s", i, n))
		}
		if p.Expected != len(lines) {
			cr.correct = false
			cr.notes = append(cr.notes, fmt.Sprintf("pass %d: input calls for %d operations, %d have a result", i, p.Expected, len(lines)))
		}
		if p.Ops != len(lines) {
			cr.correct = false
			cr.notes = append(cr.notes, fmt.Sprintf("pass %d: reported %d operations, wrote %d", i, p.Ops, len(lines)))
		}
		if workloads[o.workload].kind != "study" {
			continue
		}
		report, err := os.ReadFile(filepath.Join(p.dir, "report"))
		if err != nil {
			return cr, err
		}
		resumed, err := os.ReadFile(filepath.Join(p.dir, "resume-report"))
		if err != nil {
			return cr, err
		}
		if baseReport == nil {
			baseReport = report
		}
		// A report that differs while every probe matched cannot be
		// blamed on any operation: the aggregation itself went wrong.
		if !bytes.Equal(report, baseReport) {
			cr.notes = append(cr.notes, fmt.Sprintf("pass %d: study report differs from the baseline", i))
			if failed == 0 {
				cr.correct = false
			}
		}
		if !bytes.Equal(resumed, report) {
			cr.correct = false
			cr.notes = append(cr.notes, fmt.Sprintf("pass %d: resumed study report differs from the run's", i))
		}
	}
	if o.writeRef && len(passes) > 0 {
		if err := writeRef(base, passes[0]); err != nil {
			return cr, err
		}
		cr.notes = append(cr.notes, "wrote reference "+base)
	}
	return cr, nil
}

// outputs is one pass's operations, grouped: a study groups its probes by
// stage, a scan or spoof pass has one group. Each group carries a digest
// of its keys in order, so two groups over the same keys compare result by
// result.
type outputs struct {
	groups []group
	values []string // per operation, in order, with the operation's own id replaced by "@"
	ids    []string // per operation; nil for a reference, which stores only digests
}

type group struct {
	name   string
	n      int
	digest string
}

// parseOutputs reads "key<TAB>result" lines. A key is "<group> <id>" or a
// bare id; ids must be unique within their group.
func parseOutputs(lines []string) (*outputs, error) {
	out := &outputs{values: make([]string, 0, len(lines)), ids: make([]string, 0, len(lines))}
	var h hash.Hash
	var seen map[string]bool
	closeGroup := func() {
		if h != nil {
			out.groups[len(out.groups)-1].digest = hex.EncodeToString(h.Sum(nil))
		}
	}
	for _, l := range lines {
		key, val, ok := strings.Cut(l, "\t")
		if !ok {
			return nil, fmt.Errorf("malformed output line %q", l)
		}
		name, id := "", key
		if i := strings.LastIndexByte(key, ' '); i >= 0 {
			name, id = key[:i], key[i+1:]
		}
		if len(out.groups) == 0 || out.groups[len(out.groups)-1].name != name {
			closeGroup()
			out.groups = append(out.groups, group{name: name})
			h, seen = sha256.New(), map[string]bool{}
		}
		if seen[id] {
			return nil, fmt.Errorf("operation %q has more than one result", key)
		}
		seen[id] = true
		h.Write([]byte(id + "\n"))
		out.groups[len(out.groups)-1].n++
		out.values = append(out.values, strings.ReplaceAll(val, id, "@"))
		out.ids = append(out.ids, id)
	}
	closeGroup()
	return out, nil
}

// compareOutputs counts the baseline's operations as attempted and fails
// every one the pass got wrong. Groups over the same keys compare result
// by result. When a group's keys differ, as when a flipped outcome changes
// a study's round targets, its operations pair up by key if the baseline
// kept its keys; against a reference, which keeps only digests, the group
// fails as a whole.
func compareOutputs(base, got *outputs) (attempted, failed int, notes []string) {
	type at struct {
		g   group
		off int
	}
	index := func(o *outputs) map[string]at {
		m, off := map[string]at{}, 0
		for _, g := range o.groups {
			m[g.name] = at{g, off}
			off += g.n
		}
		return m
	}
	gotAt := index(got)
	differ := 0
	for name, b := range index(base) {
		attempted += b.g.n
		g, ok := gotAt[name]
		delete(gotAt, name)
		switch {
		case !ok:
			failed += b.g.n
			notes = append(notes, fmt.Sprintf("group %q: %d operations have no result", name, b.g.n))
		case g.g.digest == b.g.digest:
			for i := 0; i < b.g.n; i++ {
				if base.values[b.off+i] != got.values[g.off+i] {
					differ++
				}
			}
		case base.ids == nil:
			failed += max(b.g.n, g.g.n)
			notes = append(notes, fmt.Sprintf("group %q: operated on other keys than the reference (%d vs %d)", name, g.g.n, b.g.n))
		default:
			want := make(map[string]string, b.g.n)
			for i := b.off; i < b.off+b.g.n; i++ {
				want[base.ids[i]] = base.values[i]
			}
			var d, extra int
			for i := g.off; i < g.off+g.g.n; i++ {
				v, ok := want[got.ids[i]]
				switch {
				case !ok:
					extra++
				case v != got.values[i]:
					d++
				}
				delete(want, got.ids[i])
			}
			failed += d + extra + len(want)
			notes = append(notes, fmt.Sprintf("group %q: keys differ from the baseline: %d have no result, %d unexpected, %d differ", name, len(want), extra, d))
		}
	}
	for name, g := range gotAt {
		failed += g.g.n
		notes = append(notes, fmt.Sprintf("group %q: %d operations the baseline does not have", name, g.g.n))
	}
	if differ > 0 {
		failed += differ
		notes = append(notes, fmt.Sprintf("%d results differ from the baseline", differ))
	}
	return attempted, failed, notes
}

func readLines(path string) ([]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := strings.TrimSuffix(string(b), "\n")
	if s == "" {
		return nil, nil
	}
	return strings.Split(s, "\n"), nil
}

// The reference file is gzip-compressed text: a header line, one
// "group <count> <digest> <name>" line per group, the distinct results
// as "value <text>" lines, then one line per operation holding the index
// of its result among those values.
const refHeader = "perfbench reference 1"

func readRef(path string) (*outputs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sc := bufio.NewScanner(zr)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	out := &outputs{}
	var dict []string
	bad := func(l string) error { return fmt.Errorf("%s: malformed line %q", path, l) }
	if !sc.Scan() || sc.Text() != refHeader {
		return nil, fmt.Errorf("%s: not a perfbench reference", path)
	}
	for sc.Scan() {
		l := sc.Text()
		switch {
		case strings.HasPrefix(l, "group "):
			f := strings.SplitN(l, " ", 4)
			if len(f) != 4 {
				return nil, bad(l)
			}
			n, err := strconv.Atoi(f[1])
			if err != nil {
				return nil, bad(l)
			}
			out.groups = append(out.groups, group{name: f[3], n: n, digest: f[2]})
		case strings.HasPrefix(l, "value "):
			dict = append(dict, l[len("value "):])
		default:
			i, err := strconv.Atoi(l)
			if err != nil || i < 0 || i >= len(dict) {
				return nil, bad(l)
			}
			out.values = append(out.values, dict[i])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	total := 0
	for _, g := range out.groups {
		total += g.n
	}
	if total != len(out.values) {
		return nil, fmt.Errorf("%s: groups hold %d operations, %d results listed", path, total, len(out.values))
	}
	return out, nil
}

// writeRef stores a pass's outputs as the reference for its workload,
// seed and scale.
func writeRef(base string, p pass) error {
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return err
	}
	lines, err := readLines(filepath.Join(p.dir, "ops"))
	if err != nil {
		return err
	}
	out, err := parseOutputs(lines)
	if err != nil {
		return err
	}
	var text bytes.Buffer
	fmt.Fprintln(&text, refHeader)
	for _, g := range out.groups {
		fmt.Fprintf(&text, "group %d %s %s\n", g.n, g.digest, g.name)
	}
	index := map[string]int{}
	for _, v := range out.values {
		if _, ok := index[v]; !ok {
			index[v] = len(index)
			fmt.Fprintf(&text, "value %s\n", v)
		}
	}
	for _, v := range out.values {
		fmt.Fprintln(&text, index[v])
	}
	var b bytes.Buffer
	zw, err := gzip.NewWriterLevel(&b, gzip.BestCompression)
	if err != nil {
		return err
	}
	zw.Write(text.Bytes())
	if err := zw.Close(); err != nil {
		return err
	}
	if err := os.WriteFile(base+".ops.gz", b.Bytes(), 0o644); err != nil {
		return err
	}
	if report, err := os.ReadFile(filepath.Join(p.dir, "report")); err == nil {
		return os.WriteFile(base+".report", report, 0o644)
	}
	return nil
}
