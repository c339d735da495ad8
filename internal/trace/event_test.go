package trace

import (
	"sync"
	"testing"
	"time"
)

// spanTrees subscribes to tr and collects every SpanTree event's root.
func spanTrees(tr *Tracer) (seen *[]*Span, cancel func()) {
	seen = new([]*Span)
	cancel = tr.Subscribe(func(ev Event) {
		if ev.Kind == SpanTree {
			*seen = append(*seen, ev.Span)
		}
	})
	return seen, cancel
}

// TestSpanObserverSeesDetailedRoots checks the SpanTree event fires once
// per finished detailed root, with the complete tree, before the sink
// retains it.
func TestSpanObserverSeesDetailedRoots(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg)
	sink := tr.EnableSink(8)

	seen, cancel := spanTrees(tr)

	sp := tr.StartOp("create", 0)
	child := sp.Child("txn", time.Millisecond)
	child.Finish(2 * time.Millisecond)
	sp.Finish(3 * time.Millisecond)

	if len(*seen) != 1 {
		t.Fatalf("span event fired %d times, want 1", len(*seen))
	}
	if (*seen)[0].Name != "create" || len((*seen)[0].Children) != 1 {
		t.Fatalf("span event carried %q with %d children, want create with 1", (*seen)[0].Name, len((*seen)[0].Children))
	}
	if got := sink.Slowest(1); len(got) != 1 || got[0] != (*seen)[0] {
		t.Fatal("sink and subscriber disagree on the retained root")
	}

	// Child finishes must not fire the event.
	sp2 := tr.StartOp("stat", 4*time.Millisecond)
	c2 := sp2.Child("lookup", 4*time.Millisecond)
	c2.Finish(5 * time.Millisecond)
	if len(*seen) != 1 {
		t.Fatalf("child Finish fired the span event (%d calls)", len(*seen))
	}
	sp2.Finish(6 * time.Millisecond)
	if len(*seen) != 2 {
		t.Fatalf("span event fired %d times after two roots, want 2", len(*seen))
	}

	// Removal stops delivery.
	cancel()
	sp3 := tr.StartOp("read", 7*time.Millisecond)
	sp3.Finish(8 * time.Millisecond)
	if len(*seen) != 2 {
		t.Fatal("removed subscriber still received span events")
	}
}

// TestSpanObserverSilentInAggregateMode checks that without a sink
// (aggregate mode, no detailed spans) no SpanTree event fires.
func TestSpanObserverSilentInAggregateMode(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg)
	seen, _ := spanTrees(tr)

	sp := tr.StartOp("stat", 0)
	sp.Finish(time.Millisecond)
	if len(*seen) != 0 {
		t.Fatalf("span event fired %d times in aggregate mode, want 0", len(*seen))
	}
}

// TestSubscribersEachReceiveEveryEvent checks the fan-out: two
// subscribers both receive every emitted and every finish-derived event,
// and detaching one leaves the other attached.
func TestSubscribersEachReceiveEveryEvent(t *testing.T) {
	tr := NewTracer(NewRegistry())
	tr.EnableSink(8)
	var a, b []EventKind
	cancelA := tr.Subscribe(func(ev Event) { a = append(a, ev.Kind) })
	tr.Subscribe(func(ev Event) { b = append(b, ev.Kind) })

	tr.Emit(Event{Kind: RowAccess, Table: "inodes", Index: 3})
	tr.StartOp("stat", 0).Finish(time.Millisecond)

	want := []EventKind{RowAccess, OpFinish, SpanTree}
	for name, got := range map[string][]EventKind{"first": a, "second": b} {
		if len(got) != len(want) {
			t.Fatalf("%s subscriber got %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s subscriber got %v, want %v", name, got, want)
			}
		}
	}

	cancelA()
	tr.Emit(Event{Kind: PathTouch, Path: "/a"})
	if len(a) != 3 || len(b) != 4 {
		t.Fatalf("after detaching the first: first saw %d, second %d events; want 3 and 4", len(a), len(b))
	}
	if !tr.Subscribed() {
		t.Fatal("tracer reports no subscriber while one is attached")
	}
}

// TestOpFinishPrecedesSpanTree checks that every subscriber receives an
// operation's OpFinish before any subscriber receives its SpanTree, so a
// tree consumer subscribed first still judges the tree after an op
// counter subscribed later has counted the op.
func TestOpFinishPrecedesSpanTree(t *testing.T) {
	tr := NewTracer(NewRegistry())
	tr.EnableSink(8)
	counted := 0
	countedAtTree := -1
	tr.Subscribe(func(ev Event) {
		if ev.Kind == SpanTree {
			countedAtTree = counted
		}
	})
	tr.Subscribe(func(ev Event) {
		if ev.Kind == OpFinish {
			counted++
		}
	})
	tr.StartOp("create", 0).Finish(time.Millisecond)
	if countedAtTree != 1 {
		t.Fatalf("span tree delivered when the later subscriber had counted %d ops, want 1", countedAtTree)
	}
}

// TestSubscribeConcurrentWithEmit attaches and detaches subscribers while
// other goroutines emit and finish operations; run under -race it checks
// that list edits never race with delivery.
func TestSubscribeConcurrentWithEmit(t *testing.T) {
	tr := NewTracer(NewRegistry())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Emit(Event{Kind: RowAccess, Table: "inodes"})
				tr.StartOp("stat", 0).Finish(time.Millisecond)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		cancel := tr.Subscribe(func(Event) {})
		cancel()
	}
	wg.Wait()
	if tr.Subscribed() {
		t.Fatal("every subscriber detached, yet the tracer reports one")
	}
}
