package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call made from the benchmark into a layer's public
// function. Spans of one op share op; parent is the span that caused it (0
// for an op's root span).
type span struct {
	id, parent, op uint64
	name           string
	start, end     time.Duration // since the run's epoch
}

// tracer keeps one goroutine's spans in memory until the run ends.
type tracer struct {
	base  uint64 // high bits of every id, so tracers never collide
	next  uint64
	spans []span
}

func newTracer(owner int) *tracer { return &tracer{base: uint64(owner+1) << 48} }

// begin reserves a span id, so children can name their parent before it
// ends.
func (t *tracer) begin() uint64 {
	t.next++
	return t.base | t.next
}

func (t *tracer) end(id, parent, op uint64, name string, start, end time.Duration) {
	t.spans = append(t.spans, span{id, parent, op, name, start, end})
}

// writeSpans writes every tracer's spans as CSV, times in ns since the run's
// epoch.
func writeSpans(path string, tracers ...*tracer) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "id,parent,op,name,start_ns,end_ns")
	for _, t := range tracers {
		for _, s := range t.spans {
			fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.id, s.parent, s.op, s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
		}
	}
	return w.Flush()
}
