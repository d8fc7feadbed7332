package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "pass", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "a", Start: 10, End: 40, Parent: 0},
		{ID: 2, Name: "b", Start: 30, End: 60, Parent: 0}, // overlaps a
		{ID: 3, Name: "a.child", Start: 15, End: 20, Parent: 1},
		{ID: 4, Name: "late", Start: 90, End: 120, Parent: 0}, // runs past its parent
		{ID: 5, Name: "other-root", Start: 0, End: 7, Parent: -1},
	}
	want := map[int]time.Duration{
		0: 100 - 50 - 10, // children cover 10..60 and 90..100
		1: 30 - 5,
		2: 30,
		3: 5,
		4: 30,
		5: 7,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d (%s) = %d, want %d", id, spans[id].Name, got[id], w)
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0, nil)
	tr.end(id)
	if id != -1 || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded a span")
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", -1, 1, nil)
	child := tr.begin("child", root, 1, map[string]string{"k": "v"})
	time.Sleep(time.Millisecond)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Tags["k"] != "v" {
		t.Fatalf("spans = %+v", spans)
	}
	self := selfTimes(spans)
	if d := time.Duration(spans[root].End - spans[root].Start); self[root]+self[child] != d {
		t.Errorf("self times %v do not add up to the root's %v", self, d)
	}
}
