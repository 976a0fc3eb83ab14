package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"skyway/internal/arena"
	"skyway/internal/batch"
	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/registry"
	"skyway/internal/serial"
	"skyway/internal/transport"
	"skyway/internal/vm"
)

// The wrappers in this file sit between the engines and each layer's public
// interface. With tracing off they only count records (the per-job
// encoded = decoded check needs that); with tracing on they also time every
// stream and call, record a span for it, and sample the layers' public
// stats. They forward every optional capability the engines probe for
// (ConcurrentEncoders, ShuffleStartAll, Free, ArenaRegion), so a wrapped
// cluster runs the same program as an unwrapped one.

// span is one recorded interval. Leaf spans (codec streams, transport and
// registry calls) hang off the innermost structural span (setup, job,
// query) open when they started.
type span struct {
	name    string
	cat     string
	start   time.Duration // since recorder.epoch
	end     time.Duration
	parent  int // index into recorder.spans, -1 for a root
	job     int // job number, -1 during set-up
	records int64
	bytes   int64
}

// jobCounters accumulates one job's (or one set-up's) layer activity.
type jobCounters struct {
	encRecords, decRecords int64
	objects                uint64
	encBytes, decBytes     int64
	encTime, decTime       time.Duration
	regions                int
	promotions             int
	arenaPeak              uint64

	openTime, putTime, fetchTime time.Duration
	putBytes, fetchBytes         int64
	fetchAttempts, blocksFetched int64

	regExchanges int
	regTime      time.Duration

	probeTime  time.Duration
	probeReads int64

	// leafTime is the summed duration of every leaf span (codec streams,
	// transport, registry and factory calls, the field-read probe): the part
	// of the job spent inside the wrapped layers.
	leafTime time.Duration
}

// recorder owns the spans and counters. Tasks run sequentially, so every
// call arrives on one goroutine; the mutex only makes that assumption safe
// to break.
type recorder struct {
	mu      sync.Mutex
	tracing bool
	epoch   time.Time
	spans   []span
	parent  int
	job     int
	c       jobCounters

	// runtimes are the cluster's runtimes, for arena and heap sampling;
	// probeRT is the runtime whose decoded records the field-read probe
	// walks (one reduce task's records per job); probeCodec gates the
	// probe to codecs whose decoded records never move (Skyway's buffer
	// space and arena regions).
	runtimes   []*vm.Runtime
	probeRT    *vm.Runtime
	probeCodec bool
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), parent: -1, job: -1}
}

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

func (r *recorder) on() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tracing
}

// begin opens a structural span (setup, job, query) and makes it the parent
// of the leaf spans recorded until end. It returns the previous parent so
// nesting can be restored.
func (r *recorder) begin(name, cat string) (idx, prev int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.tracing {
		return -1, r.parent
	}
	r.spans = append(r.spans, span{name: name, cat: cat, start: r.now(), parent: r.parent, job: r.job})
	prev = r.parent
	r.parent = len(r.spans) - 1
	return r.parent, prev
}

func (r *recorder) end(idx, prev int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if idx < 0 {
		return
	}
	r.spans[idx].end = r.now()
	r.parent = prev
}

// leaf records a finished leaf span; callers hold r.mu.
func (r *recorder) leafLocked(name, cat string, start, end time.Duration, records, bytes int64) {
	r.spans = append(r.spans, span{name: name, cat: cat, start: start, end: end,
		parent: r.parent, job: r.job, records: records, bytes: bytes})
	r.c.leafTime += end - start
}

// startJob resets the counters for job j and switches tracing on or off
// for it.
func (r *recorder) startJob(j int, tracing bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.job = j
	r.tracing = tracing
	r.c = jobCounters{}
}

// take returns the counters gathered since the last startJob or take, and
// resets them.
func (r *recorder) take() jobCounters {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.c
	r.c = jobCounters{}
	return c
}

func (r *recorder) setRuntimes(rts []*vm.Runtime, probe *vm.Runtime, probeCodec bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runtimes = rts
	r.probeRT = probe
	r.probeCodec = probeCodec
}

// liveRegions sums the live arena regions across the cluster's runtimes.
func (r *recorder) liveRegions() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, rt := range r.runtimes {
		n += rt.Arena.Regions()
	}
	return n
}

// writeChrome writes the spans in the Chrome trace form the repository's
// SKYWAY_TRACE dumps use (complete "X" events, microsecond timestamps),
// with each span's parent and job carried as args.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	type event struct {
		Name string           `json:"name"`
		Cat  string           `json:"cat,omitempty"`
		Ph   string           `json:"ph"`
		TS   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		PID  int              `json:"pid"`
		TID  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	events := make([]any, 0, len(r.spans)+1)
	events = append(events, map[string]any{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
		"args": map[string]string{"name": "skybench"}})
	for i, s := range r.spans {
		events = append(events, event{
			Name: s.name, Cat: s.cat, Ph: "X",
			TS:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: 1,
			Args: map[string]int64{"id": int64(i), "parent": int64(s.parent), "job": int64(s.job),
				"records": s.records, "bytes": s.bytes},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- serial.Codec --------------------------------------------------------

type tracedCodec struct {
	inner serial.Codec
	r     *recorder
}

func (c *tracedCodec) Name() string { return c.inner.Name() }

func (c *tracedCodec) NewEncoder(rt *vm.Runtime, w io.Writer) serial.Encoder {
	e := &tracedEncoder{r: c.r, on: c.r.on()}
	if e.on {
		e.start = c.r.now()
	}
	e.inner = c.inner.NewEncoder(rt, w)
	return e
}

func (c *tracedCodec) NewDecoder(rt *vm.Runtime, rd io.Reader) serial.Decoder {
	d := &tracedDecoder{r: c.r, rt: rt, on: c.r.on()}
	if d.on {
		d.start = c.r.now()
		if s, ok := rd.(interface{ Size() int64 }); ok {
			d.size = s.Size()
		}
		c.r.mu.Lock()
		d.probe = c.r.probeCodec && rt == c.r.probeRT
		c.r.mu.Unlock()
	}
	d.inner = c.inner.NewDecoder(rt, rd)
	return d
}

// ConcurrentEncoders forwards serial.ConcurrentCodec.
func (c *tracedCodec) ConcurrentEncoders() bool {
	cc, ok := c.inner.(serial.ConcurrentCodec)
	return ok && cc.ConcurrentEncoders()
}

// ShuffleStartAll forwards the Skyway shuffle-phase mark; codecs without it
// need no phase management, which the no-op matches.
func (c *tracedCodec) ShuffleStartAll() {
	if s, ok := c.inner.(interface{ ShuffleStartAll() }); ok {
		s.ShuffleStartAll()
	}
}

type tracedEncoder struct {
	inner serial.Encoder
	r     *recorder
	on    bool
	start time.Duration
	n     int64
}

func (e *tracedEncoder) Write(root heap.Addr) error {
	err := e.inner.Write(root)
	if err == nil {
		e.n++
	}
	return err
}

func (e *tracedEncoder) Flush() error {
	err := e.inner.Flush()
	r := e.r
	r.mu.Lock()
	r.c.encRecords += e.n
	if e.on {
		end := r.now()
		b := e.inner.Bytes()
		r.c.encBytes += b
		r.c.encTime += end - e.start
		r.leafLocked("core.encode", "codec", e.start, end, e.n, b)
	}
	r.mu.Unlock()
	return err
}

func (e *tracedEncoder) Bytes() int64 { return e.inner.Bytes() }

type tracedDecoder struct {
	inner serial.Decoder
	r     *recorder
	rt    *vm.Runtime
	on    bool
	probe bool
	done  bool
	start time.Duration
	size  int64
	n     int64
	addrs []heap.Addr
}

func (d *tracedDecoder) Read() (heap.Addr, error) {
	a, err := d.inner.Read()
	if err == nil {
		d.n++
		if d.probe {
			d.addrs = append(d.addrs, a)
		}
		return a, nil
	}
	if !d.done {
		d.done = true
		d.finish()
	}
	return a, err
}

// finish accounts the stream once it has ended (EOF or error).
func (d *tracedDecoder) finish() {
	r := d.r
	var end time.Duration
	if d.on {
		end = r.now()
	}
	reg := d.ArenaRegion()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.c.decRecords += d.n
	if reg != nil {
		r.c.regions++
	}
	if !d.on {
		return
	}
	r.c.decBytes += d.size
	r.c.decTime += end - d.start
	r.c.objects += d.inner.Objects()
	r.leafLocked("core.decode", "codec", d.start, end, d.n, d.size)
	var mapped uint64
	for _, rt := range r.runtimes {
		mapped += rt.Arena.Bytes()
	}
	if mapped > r.c.arenaPeak {
		r.c.arenaPeak = mapped
	}
	if d.probe && len(d.addrs) > 0 {
		pStart := r.now()
		reads, readTime := probeFieldReads(d.rt, d.addrs)
		pEnd := r.now()
		r.c.probeTime += readTime
		r.c.probeReads += reads
		// The whole probe, klass resolution included, is a leaf: it is
		// benchmark work, not engine work.
		r.leafLocked("vm.field_read_probe", "probe", pStart, pEnd, int64(len(d.addrs)), reads)
	}
	d.addrs = nil
}

func (d *tracedDecoder) Objects() uint64 { return d.inner.Objects() }

// Free forwards the explicit-free API, counting the region's promotions
// before it goes.
func (d *tracedDecoder) Free() {
	f, ok := d.inner.(interface{ Free() })
	if !ok {
		return
	}
	if d.on {
		if reg := d.ArenaRegion(); reg != nil {
			n := reg.Promotions()
			d.r.mu.Lock()
			d.r.c.promotions += n
			d.r.mu.Unlock()
		}
	}
	f.Free()
}

// ArenaRegion forwards the arena-region capability (nil on every other
// decode path, which is what the engines expect from decoders without it).
func (d *tracedDecoder) ArenaRegion() *arena.Region {
	if ar, ok := d.inner.(interface{ ArenaRegion() *arena.Region }); ok {
		return ar.ArenaRegion()
	}
	return nil
}

// probeSink keeps the probe's loads observable so they are not optimised
// away.
var probeSink int64

// probeField is one field the probe reads; elem is set when the field
// refers to a primitive integer array whose elements are read too.
type probeField struct {
	f    *klass.Field
	elem bool
}

// probeFieldReads reads every field of the decoded records (and the
// elements of integer arrays they refer to) through the public vm
// accessors, and returns the accessor calls made and the time they took.
// Klasses are resolved in a first, untimed pass, so the timed pass is the
// accessor path alone: handle resolution on arena records, plain heap loads
// on eager ones.
func probeFieldReads(rt *vm.Runtime, addrs []heap.Addr) (int64, time.Duration) {
	plan := make([][]probeField, len(addrs))
	for i, a := range addrs {
		k := rt.KlassOf(a)
		for j := range k.Fields {
			f := &k.Fields[j]
			pf := probeField{f: f}
			if f.Kind == klass.Ref {
				if ref := rt.GetRef(a, f); ref != heap.Null {
					rk := rt.KlassOf(ref)
					pf.elem = rk.IsArray && isIntKind(rk.Elem)
				}
			}
			plan[i] = append(plan[i], pf)
		}
	}
	var reads, sink int64
	start := time.Now()
	for i, a := range addrs {
		for _, pf := range plan[i] {
			reads++
			switch pf.f.Kind {
			case klass.Float64:
				sink += int64(rt.GetDouble(a, pf.f))
			case klass.Float32:
				sink += int64(rt.GetFloat(a, pf.f))
			case klass.Ref:
				ref := rt.GetRef(a, pf.f)
				if !pf.elem {
					continue
				}
				n := rt.ArrayLen(ref)
				for j := 0; j < n; j++ {
					sink += rt.ArrayGetLong(ref, j)
				}
				reads += 1 + int64(n)
			default:
				sink += rt.GetInt(a, pf.f)
			}
		}
	}
	d := time.Since(start)
	probeSink += sink
	return reads, d
}

func isIntKind(k klass.Kind) bool {
	switch k {
	case klass.Int8, klass.Int16, klass.Int32, klass.Int64:
		return true
	}
	return false
}

// --- transport.Transport -------------------------------------------------

type tracedTransport struct {
	inner transport.Transport
	r     *recorder
}

func (t *tracedTransport) NewShuffle(seq int) (transport.Shuffle, error) {
	on := t.r.on()
	var start time.Duration
	if on {
		start = t.r.now()
	}
	sh, err := t.inner.NewShuffle(seq)
	if on {
		t.r.mu.Lock()
		end := t.r.now()
		t.r.c.openTime += end - start
		t.r.leafLocked("transport.open", "transport", start, end, 0, 0)
		t.r.mu.Unlock()
	}
	if err != nil {
		return nil, err
	}
	return &tracedShuffle{inner: sh, r: t.r, on: on, seen: make(map[[2]int]bool)}, nil
}

func (t *tracedTransport) WriteCost(n int64, measured time.Duration) time.Duration {
	return t.inner.WriteCost(n, measured)
}

func (t *tracedTransport) FetchCost(local, remote int64, measured time.Duration) time.Duration {
	return t.inner.FetchCost(local, remote, measured)
}

func (t *tracedTransport) Broadcast(seq int, payload []byte) (time.Duration, error) {
	return t.inner.Broadcast(seq, payload)
}

func (t *tracedTransport) FetchBroadcast(seq, ex int) ([]byte, time.Duration, error) {
	return t.inner.FetchBroadcast(seq, ex)
}

func (t *tracedTransport) BroadcastCost(n int64, measured time.Duration) time.Duration {
	return t.inner.BroadcastCost(n, measured)
}

func (t *tracedTransport) Close() error { return t.inner.Close() }

type tracedShuffle struct {
	inner transport.Shuffle
	r     *recorder
	on    bool
	seen  map[[2]int]bool
}

func (s *tracedShuffle) Put(src, dst int, block []byte) (time.Duration, error) {
	if !s.on {
		return s.inner.Put(src, dst, block)
	}
	start := s.r.now()
	d, err := s.inner.Put(src, dst, block)
	s.r.mu.Lock()
	end := s.r.now()
	s.r.c.putTime += end - start
	s.r.c.putBytes += int64(len(block))
	s.r.leafLocked("transport.put", "transport", start, end, 0, int64(len(block)))
	s.r.mu.Unlock()
	return d, err
}

func (s *tracedShuffle) Fetch(src, dst int) ([]byte, time.Duration, error) {
	if !s.on {
		return s.inner.Fetch(src, dst)
	}
	start := s.r.now()
	b, d, err := s.inner.Fetch(src, dst)
	s.r.mu.Lock()
	end := s.r.now()
	s.r.c.fetchTime += end - start
	s.r.c.fetchAttempts++
	if err == nil && len(b) > 0 {
		s.r.c.fetchBytes += int64(len(b))
		if k := [2]int{src, dst}; !s.seen[k] {
			s.seen[k] = true
			s.r.c.blocksFetched++
		}
	}
	s.r.leafLocked("transport.fetch", "transport", start, end, 0, int64(len(b)))
	s.r.mu.Unlock()
	return b, d, err
}

func (s *tracedShuffle) Drop(src, dst int) {
	if !s.on {
		s.inner.Drop(src, dst)
		return
	}
	start := s.r.now()
	s.inner.Drop(src, dst)
	s.r.mu.Lock()
	end := s.r.now()
	s.r.leafLocked("transport.drop", "transport", start, end, 0, 0)
	s.r.mu.Unlock()
}

func (s *tracedShuffle) Close() error { return s.inner.Close() }

// --- registry.Client -----------------------------------------------------

type tracedRegistry struct {
	inner registry.Client
	r     *recorder
}

// exchange times one registry round trip.
func (c *tracedRegistry) exchange(name string, fn func()) {
	if !c.r.on() {
		fn()
		return
	}
	c.r.account(name, "registry", fn)
}

// account runs fn as a timed registry exchange.
func (r *recorder) account(name, cat string, fn func()) {
	start := r.now()
	fn()
	r.mu.Lock()
	end := r.now()
	r.c.regExchanges++
	r.c.regTime += end - start
	r.leafLocked(name, cat, start, end, 0, 0)
	r.mu.Unlock()
}

func (c *tracedRegistry) RequestView() (m map[string]int32, err error) {
	c.exchange("registry.request_view", func() { m, err = c.inner.RequestView() })
	return m, err
}

func (c *tracedRegistry) Lookup(name string) (id int32, err error) {
	c.exchange("registry.lookup", func() { id, err = c.inner.Lookup(name) })
	return id, err
}

func (c *tracedRegistry) Reverse(id int32) (name string, err error) {
	c.exchange("registry.reverse", func() { name, err = c.inner.Reverse(id) })
	return name, err
}

func (c *tracedRegistry) Close() error { return c.inner.Close() }

// dialRegistry returns a dataflow.Config.RegistryClient that dials the TCP
// registry at addr, counting the dial's handshake as an exchange.
func dialRegistry(addr string, r *recorder) func() (registry.Client, error) {
	return func() (registry.Client, error) {
		var cli *registry.TCPClient
		var err error
		if r.on() {
			r.account("registry.dial", "registry", func() { cli, err = registry.Dial(addr) })
		} else {
			cli, err = registry.Dial(addr)
		}
		if err != nil {
			return nil, err
		}
		return &tracedRegistry{inner: cli, r: r}, nil
	}
}

// --- batch.CodecFactory --------------------------------------------------

// tracedFactory wraps a batch.CodecFactory: the factory call (which marks
// the Skyway shuffle phase) is timed, and the codec it returns is wrapped.
func tracedFactory(inner batch.CodecFactory, r *recorder) batch.CodecFactory {
	return func(c *batch.Cluster, class string, needed []string) serial.Codec {
		on := r.on()
		var start time.Duration
		if on {
			start = r.now()
		}
		codec := inner(c, class, needed)
		if on {
			r.mu.Lock()
			end := r.now()
			r.leafLocked("batch.codec_factory", "codec", start, end, 0, 0)
			r.mu.Unlock()
		}
		return &tracedCodec{inner: codec, r: r}
	}
}
