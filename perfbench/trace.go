package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval recorded around a call into a layer. Parent
// is the id of the span that caused it (-1 for a root). Start and End are
// offsets from the recorder's origin.
type span struct {
	ID, Parent int32
	Name       string
	Start, End time.Duration
}

// recorder keeps spans in memory for the traced run. A nil recorder
// records nothing, so the untraced run pays only a nil check.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span // guarded by mu
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records a finished span and returns its id.
func (r *recorder) add(name string, parent int32, start, end time.Time) int32 {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: start.Sub(r.origin), End: end.Sub(r.origin)})
	return id
}

// open records a span that has started and not yet ended; close sets its
// end. Open spans let children name their parent before it finishes.
func (r *recorder) open(name string, parent int32, start time.Time) int32 {
	return r.add(name, parent, start, start)
}

func (r *recorder) close(id int32, end time.Time) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	r.spans[id].End = end.Sub(r.origin)
	r.mu.Unlock()
}

// durations returns the durations of every span with the given name.
func (r *recorder) durations(name string) []time.Duration {
	if r == nil {
		return nil
	}
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// prefixDurations returns the durations of every span whose name starts
// with prefix.
func (r *recorder) prefixDurations(prefix string) []time.Duration {
	if r == nil {
		return nil
	}
	var out []time.Duration
	for _, s := range r.spans {
		if strings.HasPrefix(s.Name, prefix) {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// layerTime is one layer's share of a traced run: how many spans it
// recorded, their summed duration, and the part of that duration no child
// span covers.
type layerTime struct {
	Layer string  `json:"layer"`
	Spans int     `json:"spans"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// layerOf names the layer a span belongs to: the part of its name before
// the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each span's self time: its duration minus the union of
// the intervals its children cover, clipped to the span.
func (r *recorder) selfTimes() []time.Duration {
	children := make([][]int32, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]time.Duration, len(r.spans))
	var iv [][2]time.Duration
	for i, s := range r.spans {
		iv = iv[:0]
		for _, c := range children[i] {
			cs := r.spans[c]
			lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, end time.Duration
		for _, x := range iv {
			if x[0] > end {
				end = x[0]
			}
			if x[1] > end {
				covered += x[1] - end
				end = x[1]
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layers sums span and self time per layer, sorted by self time.
func (r *recorder) layers() []layerTime {
	if r == nil {
		return nil
	}
	self := r.selfTimes()
	by := map[string]*layerTime{}
	for i, s := range r.spans {
		l := by[layerOf(s.Name)]
		if l == nil {
			l = &layerTime{Layer: layerOf(s.Name)}
			by[l.Layer] = l
		}
		l.Spans++
		l.Total += (s.End - s.Start).Seconds()
		l.Self += self[i].Seconds()
	}
	out := make([]layerTime, 0, len(by))
	for _, l := range by {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// selfOf sums the self time of every span with the given name.
func (r *recorder) selfOf(name string) time.Duration {
	var sum time.Duration
	for i, d := range r.selfTimes() {
		if r.spans[i].Name == name {
			sum += d
		}
	}
	return sum
}

// writeFile writes every span as a gzip-compressed tab-separated line:
// id, parent, name, start and end in nanoseconds from the run's origin.
func (r *recorder) writeFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	if err := writeSpans(bw, r.spans); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return zw.Close()
}

func writeSpans(w io.Writer, spans []span) error {
	if _, err := fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns"); err != nil {
		return err
	}
	for _, s := range spans {
		if _, err := fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", s.ID, s.Parent, s.Name, int64(s.Start), int64(s.End)); err != nil {
			return err
		}
	}
	return nil
}
