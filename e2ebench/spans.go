package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gtopkssgd/internal/core"
)

type spanKind uint8

const (
	spanStep spanKind = iota
	spanGrad
	spanAggregate
	spanUpdate
	spanSend
	spanRecv
)

var spanNames = [...]string{
	spanStep:      "step",
	spanGrad:      "nn.grad",
	spanAggregate: "core.aggregate",
	spanUpdate:    "core.update",
	spanSend:      "transport.send",
	spanRecv:      "transport.recv",
}

// span is one timed call at a layer boundary. Times are nanoseconds on
// the monotonic clock since the run's trace epoch.
type span struct {
	start, end int64
	step       int32
	parent     int32 // index of the enclosing step span; -1 for a step span
	frames     int32 // frames moved by a send call
	kind       spanKind
	failed     bool
}

// rankTrace is one rank's span buffer. It is written only by the rank's
// own goroutine and read after the rank has finished; its capacity is
// allocated before the run and never grows, so tracing adds no heap
// allocation to a step.
type rankTrace struct {
	rank    int
	epoch   time.Time
	spans   []span
	dropped int
	step    int32
	parent  int32
}

// spansPerStep bounds the spans one flat gTop-k step records per rank at
// P=2: one step span, three phases, and at most one send call plus
// DefaultChunks receives per tree phase.
const spansPerStep = 4 + 2*(1+core.DefaultChunks)

func newRankTrace(rank int, epoch time.Time, steps int) *rankTrace {
	return &rankTrace{rank: rank, epoch: epoch, spans: make([]span, 0, steps*spansPerStep), parent: -1}
}

func (t *rankTrace) now() int64 { return int64(time.Since(t.epoch)) }

// add records a span that started at start and ends now; it returns the
// span's index, or -1 when the buffer is full (counted as dropped).
func (t *rankTrace) add(kind spanKind, start int64, frames int, err error) int {
	return t.put(span{start: start, end: t.now(), step: t.step, parent: t.parent, frames: int32(frames), kind: kind, failed: err != nil})
}

func (t *rankTrace) put(s span) int {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *rankTrace) beginStep(step int) {
	t.step, t.parent = int32(step), -1
	t.parent = int32(t.add(spanStep, t.now(), 0, nil))
}

func (t *rankTrace) endStep(err error) {
	if t.parent >= 0 {
		t.spans[t.parent].end = t.now()
		t.spans[t.parent].failed = err != nil
	}
}

// phases is the trainer's phase hook. It runs right after the update, so
// the phases are laid back to back, ending now, from their durations.
func (t *rankTrace) phases(_ int, pt core.PhaseTimes) {
	end := t.now()
	upd := end - int64(pt.Update)
	agg := upd - int64(pt.Aggregate)
	grad := agg - int64(pt.Compute)
	t.put(span{start: grad, end: agg, step: t.step, parent: t.parent, kind: spanGrad})
	t.put(span{start: agg, end: upd, step: t.step, parent: t.parent, kind: spanAggregate})
	t.put(span{start: upd, end: end, step: t.step, parent: t.parent, kind: spanUpdate})
}

// stepLayers is one rank's time per layer in one step, in nanoseconds.
type stepLayers struct {
	step, grad, agg, upd, send, recv int64
	frames, sendCalls, errors        int
}

// selfAgg is the aggregate phase minus the transport calls inside it:
// select, encode, decode, merge, scatter and put-back.
func (s stepLayers) selfAgg() int64 { return s.agg - s.send - s.recv }

// perStep folds the spans of steps [first, first+n) into per-step sums.
func (t *rankTrace) perStep(first, n int) []stepLayers {
	out := make([]stepLayers, n)
	for _, s := range t.spans {
		i := int(s.step) - first
		if i < 0 || i >= n {
			continue
		}
		d := s.end - s.start
		l := &out[i]
		if s.failed {
			l.errors++
		}
		switch s.kind {
		case spanStep:
			l.step += d
		case spanGrad:
			l.grad += d
		case spanAggregate:
			l.agg += d
		case spanUpdate:
			l.upd += d
		case spanSend:
			l.send += d
			l.frames += int(s.frames)
			l.sendCalls++
		case spanRecv:
			l.recv += d
		}
	}
	return out
}

// writeSpans writes every rank's spans as JSON lines after a header line
// carrying the run's description. A span's id is its index in its rank's
// buffer, which is what parent refers to.
func writeSpans(path string, header map[string]any, traces []*rankTrace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(header)
	for _, t := range traces {
		for id, s := range t.spans {
			if err != nil {
				break
			}
			err = enc.Encode(struct {
				ID     int    `json:"id"`
				Name   string `json:"name"`
				Rank   int    `json:"rank"`
				Step   int32  `json:"step"`
				Parent int32  `json:"parent"`
				Start  int64  `json:"start_ns"`
				End    int64  `json:"end_ns"`
				Frames int32  `json:"frames,omitempty"`
				Failed bool   `json:"failed,omitempty"`
			}{id, spanNames[s.kind], t.rank, s.step, s.parent, s.start, s.end, s.frames, s.failed})
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans %s: %w", path, err)
	}
	return nil
}
