package main

import (
	"time"

	"hopsfscl/internal/namenode"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/workload"
)

// outcome classifies how a client operation ended.
type outcome uint8

const (
	// outcomeOK is a successful operation.
	outcomeOK outcome = iota
	// outcomeBenign is a namespace outcome such as not-found or exists
	// (namenode.IsOutcomeError): the system answered correctly, the
	// racing workload asked for something that no longer holds.
	outcomeBenign
	// outcomeFailed is any other error: the system failed to serve.
	outcomeFailed
)

func classify(err error) outcome {
	switch {
	case err == nil:
		return outcomeOK
	case namenode.IsOutcomeError(err):
		return outcomeBenign
	default:
		return outcomeFailed
	}
}

// opSpan is one client operation observed at the workload.FS boundary: the
// benchmark's own span, one id per operation, in virtual time.
type opSpan struct {
	id         uint64
	client     int32
	op         workload.Op
	outcome    outcome
	start, end time.Duration
}

// recorder keeps the spans of operations that finish while it is on. The
// simulation kernel runs one process at a time, so the clients share it
// without locking.
type recorder struct {
	on     bool
	nextID uint64
	spans  []opSpan
}

func (r *recorder) record(client int32, op workload.Op, start, end time.Duration, err error) {
	if !r.on {
		return
	}
	r.nextID++
	r.spans = append(r.spans, opSpan{
		id: r.nextID, client: client, op: op, outcome: classify(err), start: start, end: end,
	})
}

// timedFS is the timing wrapper around one client's workload.FS: it times
// every call in virtual time and hands it to the recorder. The methods are
// written out rather than routed through a closure so the wrapper adds no
// allocation per operation.
type timedFS struct {
	fs     workload.FS
	rec    *recorder
	client int32
}

var _ workload.FS = (*timedFS)(nil)

func (t *timedFS) Mkdir(p *sim.Proc, path string) error {
	start := p.Now()
	err := t.fs.Mkdir(p, path)
	t.rec.record(t.client, workload.OpMkdir, start, p.Now(), err)
	return err
}

func (t *timedFS) Create(p *sim.Proc, path string) error {
	start := p.Now()
	err := t.fs.Create(p, path)
	t.rec.record(t.client, workload.OpCreate, start, p.Now(), err)
	return err
}

func (t *timedFS) Stat(p *sim.Proc, path string) error {
	start := p.Now()
	err := t.fs.Stat(p, path)
	t.rec.record(t.client, workload.OpStat, start, p.Now(), err)
	return err
}

func (t *timedFS) Read(p *sim.Proc, path string) error {
	start := p.Now()
	err := t.fs.Read(p, path)
	t.rec.record(t.client, workload.OpRead, start, p.Now(), err)
	return err
}

func (t *timedFS) List(p *sim.Proc, path string) error {
	start := p.Now()
	err := t.fs.List(p, path)
	t.rec.record(t.client, workload.OpList, start, p.Now(), err)
	return err
}

func (t *timedFS) Delete(p *sim.Proc, path string) error {
	start := p.Now()
	err := t.fs.Delete(p, path)
	t.rec.record(t.client, workload.OpDelete, start, p.Now(), err)
	return err
}

func (t *timedFS) Rename(p *sim.Proc, src, dst string) error {
	start := p.Now()
	err := t.fs.Rename(p, src, dst)
	t.rec.record(t.client, workload.OpRename, start, p.Now(), err)
	return err
}

func (t *timedFS) SetPermission(p *sim.Proc, path string) error {
	start := p.Now()
	err := t.fs.SetPermission(p, path)
	t.rec.record(t.client, workload.OpSetPerm, start, p.Now(), err)
	return err
}
