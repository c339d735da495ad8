package trace

import (
	"slices"
	"time"
)

// EventKind names the fact an Event reports, and so which fields are set.
type EventKind uint8

// Event kinds. Each lists the fields it sets besides Kind and At.
const (
	// OpFinish: a root operation finished. Op is its name, Dur its
	// end-to-end latency, Failed a non-benign error (see Span.Benign).
	OpFinish EventKind = iota
	// SpanTree: a detailed root span tree finished (Span; Op is its name).
	// Only detailed mode (an enabled sink) produces these, and every
	// subscriber has already received the same operation's OpFinish.
	SpanTree
	// RowAccess: one NDB row access to partition Index of Table.
	RowAccess
	// PathTouch: a namenode operation on Path.
	PathTouch
	// InodeTouch: a namenode read of inode Inode.
	InodeTouch
	// ShardBegin: a sub-transaction began on shard Index (multi-shard only).
	ShardBegin
	// LockWait: a transaction of op Op blocked Dur on a row lock of Table
	// held by a transaction of op Holder. Exclusive is the requested mode;
	// Failed means the wait timed out.
	LockWait
)

// Event is one fact an instrumented layer reports through its tracer.
// Subscribers receive it by value, so emitting allocates nothing.
type Event struct {
	Kind      EventKind
	At        time.Duration // virtual instant
	Op        string
	Holder    string
	Table     string
	Path      string
	Index     int
	Inode     uint64
	Dur       time.Duration
	Failed    bool
	Exclusive bool
	Span      *Span
}

// Subscriber consumes every event its tracer emits, ignoring the kinds it
// does not handle. A SpanTree's tree must be treated as immutable.
type Subscriber func(Event)

// Subscribe attaches fn to every event emitted from now on, after the
// subscribers already attached, and returns a function that detaches it.
// An attached subscriber keeps StartOp returning live spans (see off).
func (t *Tracer) Subscribe(fn Subscriber) (cancel func()) {
	if t == nil {
		return func() {}
	}
	sub := &fn // the pointer identifies this subscription
	t.editSubs(func(subs []*Subscriber) []*Subscriber { return append(subs, sub) })
	return func() {
		t.editSubs(func(subs []*Subscriber) []*Subscriber {
			return slices.DeleteFunc(subs, func(s *Subscriber) bool { return s == sub })
		})
	}
}

// editSubs publishes edit's result on a copy of the subscriber list, so
// Emit never sees a list change under it. An empty result is stored as
// nil, keeping Subscribed a single load.
func (t *Tracer) editSubs(edit func([]*Subscriber) []*Subscriber) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var subs []*Subscriber
	if cur := t.subs.Load(); cur != nil {
		subs = slices.Clone(*cur)
	}
	if subs = edit(subs); len(subs) == 0 {
		t.subs.Store(nil)
		return
	}
	t.subs.Store(&subs)
}

// Subscribed reports whether any subscriber is attached. Emitting sites
// check it before building an Event, so with no subscriber an event costs
// one atomic load and a branch.
func (t *Tracer) Subscribed() bool {
	return t != nil && t.subs.Load() != nil
}

// Emit delivers ev to every subscriber in subscription order.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	if subs := t.subs.Load(); subs != nil {
		for _, s := range *subs {
			(*s)(ev)
		}
	}
}
