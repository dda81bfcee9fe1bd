package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made. Spans of one query share QID;
// a root span (the db.Query call) has Parent 0. Times are nanoseconds since
// the tracer started.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	QID    int64  `json:"qid"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Each client records
// into its own buffer; ids come from one shared counter.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	walk  *walkEnv

	mu   sync.Mutex
	bufs []*spanBuf
}

func newTracer(walk *walkEnv) *tracer { return &tracer{epoch: time.Now(), walk: walk} }

type spanBuf struct {
	tr    *tracer
	spans []span
}

func (t *tracer) buffer() *spanBuf {
	b := &spanBuf{tr: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// add records a finished span and returns its id.
func (b *spanBuf) add(name string, parent, qid int64, start, end time.Time) int64 {
	id := b.tr.ids.Add(1)
	b.spans = append(b.spans, span{
		Name: name, ID: id, Parent: parent, QID: qid,
		Start: start.Sub(b.tr.epoch).Nanoseconds(),
		End:   end.Sub(b.tr.epoch).Nanoseconds(),
	})
	return id
}

// time runs fn as a span named name under parent.
func (b *spanBuf) time(name string, parent, qid int64, fn func() error) error {
	start := time.Now()
	err := fn()
	b.add(name, parent, qid, start, time.Now())
	return err
}

// write stores every span as one JSON record per line. Call it after every
// client has stopped.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, b := range t.bufs {
		for i := range b.spans {
			if err := enc.Encode(&b.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("read spans: %w", err)
		}
		out = append(out, s)
	}
	return out, nil
}

// layerTimes derives per-layer numbers from spans: each name's self time
// (its duration minus the part its children cover) summed and divided by
// the number of root query spans, and the coverage, the layer spans' total
// self time over the root spans' total duration.
func layerTimes(spans []span) (msPerQuery map[string]float64, coverage float64, roots int) {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]int64{}
	var rootNs, layerNs int64
	for _, s := range spans {
		ns := s.End - s.Start - covered(s, children[s.ID])
		self[s.Name] += ns
		if s.Parent == 0 {
			roots++
			rootNs += s.End - s.Start
		} else {
			layerNs += ns
		}
	}
	msPerQuery = map[string]float64{}
	if roots == 0 {
		return msPerQuery, 0, 0
	}
	for name, ns := range self {
		msPerQuery[name] = float64(ns) / 1e6 / float64(roots)
	}
	if rootNs > 0 {
		coverage = float64(layerNs) / float64(rootNs)
	}
	return msPerQuery, coverage, roots
}

// covered returns how much of s's interval the union of kids covers.
func covered(s span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a < end {
			v.a = end
		}
		if v.a < v.b {
			total += v.b - v.a
			end = v.b
		}
	}
	return total
}
