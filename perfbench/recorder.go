package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// recorder is the traced run's in-memory span store. A span is one call
// across a layer boundary: it has a name, a start, an end, the span that
// was open when it began (its parent) and the round it belongs to. Each
// goroutine has its own stack of open spans, so a span's self time is its
// duration minus the time of the spans nested inside it on the same
// goroutine.
//
// The benchmark's driver goroutine uses begin/end, which need no goroutine
// lookup. Code that may run on other goroutines (the TCP transport's
// receive loops) uses beginG/endG, which key the stack by goroutine ID.
//
// A disabled recorder costs one atomic load per call. It may be switched
// on between rounds; a span whose begin was skipped while it was off is
// ignored at its end.
type recorder struct {
	on atomic.Bool

	mu     sync.Mutex
	names  []string
	index  map[string]int
	agg    []spanAgg
	driver []openSpan
	lanes  map[uint64][]openSpan
	round  uint64
	raw    []rawSpan
	rawCap int
	total  uint64
	epoch  time.Time
	// driverG is the driver goroutine's ID: beginG/endG called there use
	// the driver stack, so spans opened with begin nest them.
	driverG uint64
}

// spanAgg accumulates one span name.
type spanAgg struct {
	calls uint64
	self  time.Duration
	total time.Duration
	durs  []time.Duration // kept only for names registered with keepDurations
	keep  bool
}

type openSpan struct {
	id    int
	start time.Time
	child time.Duration
	raw   int // index into raw, or -1 once raw is full
}

// rawSpan is one recorded span as written out at the end of the run.
type rawSpan struct {
	round  uint64
	id     int32
	parent int32 // raw index of the parent span, -1 for a root
	start  time.Duration
	dur    time.Duration
}

func newRecorder(on bool, rawCap int) *recorder {
	r := &recorder{
		index:   make(map[string]int),
		lanes:   make(map[uint64][]openSpan),
		rawCap:  rawCap,
		epoch:   time.Now(),
		driverG: goid(),
	}
	r.on.Store(on)
	return r
}

// id interns a span name. keepDurations retains every span duration of
// the name, for percentiles.
func (r *recorder) id(name string, keepDurations bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.index[name]; ok {
		return i
	}
	r.index[name] = len(r.names)
	r.names = append(r.names, name)
	r.agg = append(r.agg, spanAgg{keep: keepDurations})
	return len(r.names) - 1
}

// setRound stamps subsequent spans with a round number.
func (r *recorder) setRound(n uint64) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.round = n
	r.mu.Unlock()
}

func (r *recorder) begin(id int) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.driver = r.push(r.driver, id)
	r.mu.Unlock()
}

func (r *recorder) end() {
	if !r.on.Load() {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.driver = r.pop(r.driver, now)
	r.mu.Unlock()
}

// beginG and endG open and close a span on the calling goroutine's own
// stack.
func (r *recorder) beginG(id int) {
	if !r.on.Load() {
		return
	}
	g := goid()
	r.mu.Lock()
	if g == r.driverG {
		r.driver = r.push(r.driver, id)
	} else {
		r.lanes[g] = r.push(r.lanes[g], id)
	}
	r.mu.Unlock()
}

func (r *recorder) endG() {
	if !r.on.Load() {
		return
	}
	now := time.Now()
	g := goid()
	r.mu.Lock()
	if g == r.driverG {
		r.driver = r.pop(r.driver, now)
	} else if st := r.pop(r.lanes[g], now); len(st) == 0 {
		delete(r.lanes, g)
	} else {
		r.lanes[g] = st
	}
	r.mu.Unlock()
}

// push opens a span; caller holds r.mu.
func (r *recorder) push(st []openSpan, id int) []openSpan {
	o := openSpan{id: id, start: time.Now(), raw: -1}
	if len(r.raw) < r.rawCap {
		parent := int32(-1)
		if len(st) > 0 {
			parent = int32(st[len(st)-1].raw)
		}
		o.raw = len(r.raw)
		r.raw = append(r.raw, rawSpan{round: r.round, id: int32(id), parent: parent, start: o.start.Sub(r.epoch)})
	}
	r.total++
	return append(st, o)
}

// pop closes the innermost span; caller holds r.mu.
func (r *recorder) pop(st []openSpan, now time.Time) []openSpan {
	if len(st) == 0 {
		return st
	}
	o := st[len(st)-1]
	st = st[:len(st)-1]
	d := now.Sub(o.start)
	a := &r.agg[o.id]
	a.calls++
	a.total += d
	a.self += d - o.child
	if a.keep {
		a.durs = append(a.durs, d)
	}
	if o.raw >= 0 {
		r.raw[o.raw].dur = d
	}
	if len(st) > 0 {
		st[len(st)-1].child += d
	}
	return st
}

// stat reports one span name's aggregate (zero if never recorded).
func (r *recorder) stat(name string) spanAgg {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.index[name]; ok {
		return r.agg[i]
	}
	return spanAgg{}
}

// writeCSV writes the recorded spans (up to the raw cap) and a per-name
// summary to path.
func (r *recorder) writeCSV(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# spans recorded %d, written %d\n", r.total, len(r.raw))
	fmt.Fprintln(w, "# summary: name,calls,self_ms,total_ms")
	for i, n := range r.names {
		a := r.agg[i]
		fmt.Fprintf(w, "# %s,%d,%.6f,%.6f\n", n, a.calls, ms(a.self), ms(a.total))
	}
	fmt.Fprintln(w, "span,round,name,parent,start_ns,dur_ns")
	for i, s := range r.raw {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d\n", i, s.round, r.names[s.id], s.parent, int64(s.start), int64(s.dur))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid parses the calling goroutine's ID from its stack header
// ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		b = b[:i]
	}
	n, _ := strconv.ParseUint(string(b), 10, 64)
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
