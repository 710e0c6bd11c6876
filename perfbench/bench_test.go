package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// run starts its child passes.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--child" {
		os.Exit(realMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// tinyScale keeps every workload's pass around a second.
const tinyScale = "0.002"

type printed struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runBench runs the benchmark in-process and returns its table and the
// decoded last line.
func runBench(t *testing.T, args ...string) (string, printed) {
	t.Helper()
	var out bytes.Buffer
	if code := realMain(args, &out); code != 0 {
		t.Fatalf("perfbench %v exited %d", args, code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var p printed
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	return out.String(), p
}

// benchmarkJSON reads the metric definitions from the repository's
// BENCHMARK.json.
func benchmarkJSON(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range def.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

func checkMetrics(t *testing.T, table string, got map[string]metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json defines %d", len(got), len(want))
	}
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("metric %s missing from the result line", name)
		case m.Unit != unit:
			t.Errorf("metric %s has unit %q, want %q", name, m.Unit, unit)
		}
		if !strings.Contains(table, name) {
			t.Errorf("metric %s missing from the table", name)
		}
	}
}

// TestEveryMetricPrinted runs every workload at a tiny scale, plain and
// traced, and checks that each metric BENCHMARK.json names is printed
// with its unit.
func TestEveryMetricPrinted(t *testing.T) {
	e2e, layer := benchmarkJSON(t)
	for _, w := range []string{"study", "study-c32", "scan", "spoof"} {
		t.Run(w, func(t *testing.T) {
			work := t.TempDir()
			common := []string{"--workload", w, "--scale", tinyScale, "--seconds", "0", "--work", work, "--ref", t.TempDir()}
			table, p := runBench(t, append(common, "--trace", "0")...)
			if !p.Correct || p.Attempted == 0 || p.Failed != 0 {
				t.Errorf("plain run: correct=%t attempted=%d failed=%d\n%s", p.Correct, p.Attempted, p.Failed, table)
			}
			checkMetrics(t, table, p.Metrics, e2e)
			for _, name := range []string{"failed_frac"} {
				if !strings.Contains(table, name) {
					t.Errorf("%s missing from the table", name)
				}
			}
			if workloads[w].kind == "study" && !strings.Contains(table, "resume_s") {
				t.Errorf("resume_s missing from the study table")
			}
			table, p = runBench(t, append(common, "--trace", "1")...)
			if !p.Correct || p.Failed != 0 {
				t.Errorf("traced run: correct=%t failed=%d\n%s", p.Correct, p.Failed, table)
			}
			checkMetrics(t, table, p.Metrics, layer)
			if _, err := os.Stat(filepath.Join(work, "traces", w+"-seed1.tsv.gz")); err != nil {
				t.Errorf("traced run left no span file: %v", err)
			}
		})
	}
}

// TestCorruptReferenceFails stores a reference, changes one operation's
// result in it, and checks that the next run counts that operation as
// failed.
func TestCorruptReferenceFails(t *testing.T) {
	for _, w := range []string{"study", "spoof"} {
		t.Run(w, func(t *testing.T) {
			ref := t.TempDir()
			common := []string{"--workload", w, "--scale", tinyScale, "--seconds", "0", "--work", t.TempDir(), "--ref", ref}
			runBench(t, append(common, "--write-ref")...)
			_, p := runBench(t, common...)
			if !p.Correct || p.Failed != 0 {
				t.Fatalf("run against its own reference: correct=%t failed=%d", p.Correct, p.Failed)
			}
			path := filepath.Join(ref, w+"-seed1-scale"+tinyScale+".ops.gz")
			corruptReference(t, path)
			table, p := runBench(t, common...)
			// The corrupted operation fails once in every pass.
			var passes int
			if _, err := fmt.Sscanf(table[strings.Index(table, "passes "):], "passes %d", &passes); err != nil {
				t.Fatalf("no pass count in the table: %v\n%s", err, table)
			}
			if p.Failed != passes {
				t.Errorf("corrupted reference: failed=%d of %d over %d passes, want %d", p.Failed, p.Attempted, passes, passes)
			}
			if w == "study" {
				runBench(t, append(common, "--write-ref")...)
				report := filepath.Join(ref, w+"-seed1-scale"+tinyScale+".report")
				if err := os.WriteFile(report, []byte("not the report\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				if _, p = runBench(t, common...); p.Correct {
					t.Error("a run whose study report differs from the reference is reported correct")
				}
			}
		})
	}
}

// TestChangedKeysPairByKey checks that a stage whose address set changed
// fails only the operations that differ, when the baseline kept its keys.
func TestChangedKeysPairByKey(t *testing.T) {
	base, err := parseOutputs([]string{"initial a\tok", "round-000 a\tok", "round-000 b\tok", "round-000 c\tok"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseOutputs([]string{"initial a\tok", "round-000 a\tok", "round-000 b\tbad", "round-000 d\tok"})
	if err != nil {
		t.Fatal(err)
	}
	attempted, failed, notes := compareOutputs(base, got)
	// b differs, c has no result, d is unexpected.
	if attempted != 4 || failed != 3 {
		t.Errorf("attempted=%d failed=%d, want 4 and 3 (%v)", attempted, failed, notes)
	}
	base.ids = nil // a reference keeps only digests
	if _, failed, _ = compareOutputs(base, got); failed != 3 {
		t.Errorf("against a reference: failed=%d, want the whole group of 3", failed)
	}
}

// corruptReference gives one operation in a reference file a result no
// run produces.
func corruptReference(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(zr)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(text), "\n"), "\n")
	values, firstOp := 0, 0
	for i, l := range lines {
		if strings.HasPrefix(l, "value ") {
			values, firstOp = values+1, i+1
		}
	}
	ops := lines[firstOp:]
	ops[len(ops)/2] = strconv.Itoa(values)
	lines = append(lines[:firstOp:firstOp], append([]string{"value corrupted"}, ops...)...)
	var b bytes.Buffer
	zw := gzip.NewWriter(&b)
	zw.Write([]byte(strings.Join(lines, "\n") + "\n"))
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
