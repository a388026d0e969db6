package main

import (
	"bufio"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// spanRec is one completed span as the in-memory sink keeps it.
type spanRec struct {
	Name   string
	ID     uint64
	Parent uint64
	Root   uint64
	Start  time.Time
	Dur    time.Duration
	Attrs  []obs.Attr
}

func (s spanRec) end() time.Time { return s.Start.Add(s.Dur) }

// attr returns the last value set for key.
func (s spanRec) attr(key string) any {
	for i := len(s.Attrs) - 1; i >= 0; i-- {
		if s.Attrs[i].Key == key {
			return s.Attrs[i].Value
		}
	}
	return nil
}

func (s spanRec) intAttr(key string) int64 {
	n, _ := s.attr(key).(int64)
	return n
}

func (s spanRec) strAttr(key string) string {
	v, _ := s.attr(key).(string)
	return v
}

// memSink keeps every span in memory until the run ends; nothing is written
// while ops are timed.
type memSink struct {
	mu    sync.Mutex
	spans []spanRec
}

// Span implements obs.Sink.
func (m *memSink) Span(ev obs.Event) {
	rec := spanRec{Name: ev.Name, ID: ev.ID, Parent: ev.Parent, Root: ev.Root, Start: ev.Start, Dur: ev.Duration,
		Attrs: append([]obs.Attr(nil), ev.Attrs...)}
	m.mu.Lock()
	m.spans = append(m.spans, rec)
	m.mu.Unlock()
}

// byRoot groups the retained spans by trace root.
func (m *memSink) byRoot() map[uint64][]spanRec {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[uint64][]spanRec)
	for _, s := range m.spans {
		out[s.Root] = append(out[s.Root], s)
	}
	return out
}

// writeJSONL writes every retained span through the program's JSON-lines
// trace format to path, creating its directory.
func (m *memSink) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	sink := obs.NewJSONLSink(w)
	m.mu.Lock()
	for _, s := range m.spans {
		sink.Span(obs.Event{Name: s.Name, ID: s.ID, Parent: s.Parent, Root: s.Root, Start: s.Start, Duration: s.Dur, Attrs: s.Attrs})
	}
	m.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tree is the span tree of one op.
type tree struct {
	spans    []spanRec
	children map[uint64][]int // span ID → indices of its children
	byID     map[uint64]int
}

func newTree(spans []spanRec) *tree {
	t := &tree{spans: spans, children: make(map[uint64][]int), byID: make(map[uint64]int, len(spans))}
	for i, s := range spans {
		t.children[s.Parent] = append(t.children[s.Parent], i)
		t.byID[s.ID] = i
	}
	return t
}

// selfTime is s's duration minus the part of its interval that its children
// cover. Children run in parallel under the work-stealing pool, so their
// intervals are merged before they are subtracted; the result is never
// negative.
func (t *tree) selfTime(s spanRec) time.Duration {
	var iv [][2]time.Time
	for _, ci := range t.children[s.ID] {
		c := t.spans[ci]
		lo, hi := c.Start, c.end()
		if lo.Before(s.Start) {
			lo = s.Start
		}
		if hi.After(s.end()) {
			hi = s.end()
		}
		if hi.After(lo) {
			iv = append(iv, [2]time.Time{lo, hi})
		}
	}
	return s.Dur - unionLength(iv)
}

// unionLength returns the total length covered by a set of intervals.
func unionLength(iv [][2]time.Time) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curLo, curHi time.Time
	for i, x := range iv {
		if i == 0 || x[0].After(curHi) {
			if i > 0 {
				total += curHi.Sub(curLo)
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		if x[1].After(curHi) {
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi.Sub(curLo)
	}
	return total
}

// named returns the op's spans with the given name.
func (t *tree) named(name string) []spanRec {
	var out []spanRec
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// parentName returns the name of s's parent within the tree ("" for none).
func (t *tree) parentName(s spanRec) string {
	if i, ok := t.byID[s.Parent]; ok {
		return t.spans[i].Name
	}
	return ""
}
