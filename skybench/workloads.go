package main

import (
	"fmt"
	"net"
	"time"

	"skyway/internal/batch"
	"skyway/internal/dataflow"
	"skyway/internal/datagen"
	"skyway/internal/gc"
	"skyway/internal/klass"
	"skyway/internal/metrics"
	"skyway/internal/netsim"
	"skyway/internal/registry"
	"skyway/internal/serial"
	tcptransport "skyway/internal/transport/tcp"
	"skyway/internal/vm"
)

// Input sizes. Each is chosen so one job takes a few tenths of a second on
// a 2-vCPU host: long enough that per-job timer noise is small, short
// enough that a run holds dozens of jobs whose median is steady.
const (
	tcGraph      = "Orkut"
	tcScale      = 0.05 // 1,500 vertices, ~58,000 generated edges
	prGraph      = "LiveJournal"
	prScale      = 0.08 // 3,840 vertices, ~55,000 edges
	prIters      = 3
	tpchScale    = 1.0
	tcWorkers    = 3
	prWorkers    = 2 // one executor block-server process each
	tpchWorkers  = 3
	setupRepeats = 3
)

// workloadNames lists the workloads in report order.
var workloadNames = []string{"tc-arena", "pr-tcp", "tpch-batch"}

// instance is one booted cluster holding its generated inputs.
type instance interface {
	// job runs one whole job (a TC count, a PageRank run, or one pass over
	// QA–QE) and returns one result per operation.
	job(rec *recorder) ([]opResult, error)
	// reference computes the expected digests from the generated inputs;
	// want returns operation i's, and match compares a digest with it.
	reference()
	want(i int) float64
	match(i int, got float64) bool
	// gcStats sums the collectors' statistics across the cluster.
	gcStats() gc.Stats
	// heapPeaks returns the peak executor heap use and input-buffer high
	// water mark, in bytes.
	heapPeaks() (heapPeak, bufferPeak uint64)
	// serverRSSMB returns the executor processes' peak RSS (0 without any).
	serverRSSMB() float64
	close() error
}

// opResult is one checked operation: a job, or one query on tpch-batch.
type opResult struct {
	name   string
	bd     metrics.Breakdown
	wall   time.Duration
	digest float64
	cnt    jobCounters
}

// newSetup generates the workload's inputs and boots its cluster. It
// returns the time input generation took.
func newSetup(name string, seed uint64, codec string, rec *recorder) (instance, time.Duration, error) {
	switch name {
	case "tc-arena":
		return setupTC(seed, codec, rec)
	case "pr-tcp":
		return setupPR(seed, codec, rec)
	case "tpch-batch":
		return setupTPCH(seed, codec, rec)
	}
	return nil, 0, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// graphSeed derives a generator seed from the benchmark seed, keeping the
// graph family's own seed in the mix so two families never share a stream.
func graphSeed(spec datagen.GraphSpec, seed uint64) uint64 {
	return spec.Seed*0x9E3779B97F4A7C15 + seed
}

// dataflowCodec builds the named codec over a dataflow cluster's runtimes.
func dataflowCodec(c *dataflow.Cluster, name string) (serial.Codec, error) {
	switch name {
	case "kryo":
		return serial.KryoCodec(dataflow.WorkloadRegistration()), nil
	case "skyway", "skyway-arena":
		rts := []*vm.Runtime{c.Driver}
		for _, ex := range c.Execs {
			rts = append(rts, ex.RT)
		}
		sk := serial.NewSkywayCodec(rts...)
		sk.Arena = name == "skyway-arena"
		return sk, nil
	}
	return nil, fmt.Errorf("codec %q is not one of skyway-arena, skyway, kryo", name)
}

// dataflowInstance is shared by the two dataflow workloads.
type dataflowInstance struct {
	c   *dataflow.Cluster
	g   *datagen.Graph
	run func(c *dataflow.Cluster, g *datagen.Graph) (metrics.Breakdown, float64, error)
	// refFn computes the reference digest; check compares a job's digest
	// with it.
	refFn func(g *datagen.Graph) float64
	check func(got, want float64) bool
	ref   float64

	// pr-tcp only.
	execs  *executors
	tr     *tcptransport.Transport
	regSrv *registry.Server
}

func bootDataflow(cfg dataflow.Config, codec string, rec *recorder) (*dataflow.Cluster, error) {
	cp := klass.NewPath()
	dataflow.WorkloadClasses(cp)
	cfg.Heap = dataflow.DefaultWorkerHeap()
	cfg.ParallelTasks = 1 // sequential tasks, whatever SKYWAY_PARALLEL says
	c, err := dataflow.NewCluster(cp, cfg, nil)
	if err != nil {
		return nil, err
	}
	inner, err := dataflowCodec(c, codec)
	if err != nil {
		return nil, err
	}
	c.Codec = &tracedCodec{inner: inner, r: rec}
	rts := []*vm.Runtime{c.Driver}
	for _, ex := range c.Execs {
		rts = append(rts, ex.RT)
	}
	rec.setRuntimes(rts, c.Execs[0].RT, codec != "kryo")
	return c, nil
}

func setupTC(seed uint64, codec string, rec *recorder) (inst instance, gen time.Duration, err error) {
	if codec == "" {
		codec = "skyway-arena"
	}
	spec, err := datagen.GraphByName(tcGraph, tcScale)
	if err != nil {
		return nil, gen, err
	}
	spec.Seed = graphSeed(spec, seed)
	t0 := time.Now()
	g := spec.Generate()
	gen = time.Since(t0)
	tr := &tracedTransport{inner: netsim.NewLocalTransport(netsim.Paper1GbE(), ""), r: rec}
	c, err := bootDataflow(dataflow.Config{Workers: tcWorkers, Transport: tr}, codec, rec)
	if err != nil {
		return nil, gen, err
	}
	d := &dataflowInstance{c: c, g: g,
		run: func(c *dataflow.Cluster, g *datagen.Graph) (metrics.Breakdown, float64, error) {
			bd, n, err := dataflow.RunTriangleCounting(c, g)
			return bd, float64(n), err
		},
		refFn: func(g *datagen.Graph) float64 { return float64(refTriangles(g)) },
		check: func(got, want float64) bool { return got == want },
	}
	return d, gen, nil
}

func setupPR(seed uint64, codec string, rec *recorder) (inst instance, gen time.Duration, err error) {
	if codec == "" {
		codec = "skyway"
	}
	spec, err := datagen.GraphByName(prGraph, prScale)
	if err != nil {
		return nil, gen, err
	}
	spec.Seed = graphSeed(spec, seed)
	t0 := time.Now()
	g := spec.Generate()
	gen = time.Since(t0)

	d := &dataflowInstance{g: g,
		run: func(c *dataflow.Cluster, g *datagen.Graph) (metrics.Breakdown, float64, error) {
			return dataflow.RunPageRank(c, g, prIters)
		},
		refFn: func(g *datagen.Graph) float64 { return refRankMass(g, prIters) },
		check: func(got, want float64) bool { return closeRel(got, want, prTolerance) },
	}
	// Every exit path below that fails tears down what was started.
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	reg := registry.NewRegistry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, gen, err
	}
	d.regSrv = registry.Serve(reg, ln)
	regAddr := ln.Addr().String()
	if d.execs, err = spawnExecutors(prWorkers, regAddr); err != nil {
		return nil, gen, err
	}
	if err = d.execs.awaitReady(announceDeadline); err != nil {
		return nil, gen, err
	}
	// Each executor announces before printing its ready line, so one PEERS
	// poll finds them all; the retry budget only covers a slow registry.
	if d.tr, err = tcptransport.DiscoverTransport(registry.InProc{R: reg}, prWorkers, 50); err != nil {
		return nil, gen, err
	}
	d.c, err = bootDataflow(dataflow.Config{
		Workers:        prWorkers,
		Transport:      &tracedTransport{inner: d.tr, r: rec},
		RegistryClient: dialRegistry(regAddr, rec),
	}, codec, rec)
	if err != nil {
		return nil, gen, err
	}
	return d, gen, nil
}

func (d *dataflowInstance) job(rec *recorder) ([]opResult, error) {
	if d.execs != nil {
		if err := d.execs.alive(); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	bd, digest, err := d.run(d.c, d.g)
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	return []opResult{{name: "job", bd: bd, wall: wall, digest: digest, cnt: rec.take()}}, nil
}

func (d *dataflowInstance) reference()                    { d.ref = d.refFn(d.g) }
func (d *dataflowInstance) want(int) float64              { return d.ref }
func (d *dataflowInstance) match(_ int, got float64) bool { return d.check(got, d.ref) }

func (d *dataflowInstance) gcStats() gc.Stats { return d.c.GCStats() }

func (d *dataflowInstance) heapPeaks() (uint64, uint64) { return d.c.PeakHeap, d.c.BufferPeak() }

func (d *dataflowInstance) serverRSSMB() float64 {
	if d.execs == nil {
		return 0
	}
	return d.execs.peakRSSMB()
}

func (d *dataflowInstance) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if d.tr != nil {
		keep(d.tr.Close())
	}
	if d.regSrv != nil {
		keep(d.regSrv.Close())
	}
	keep(d.execs.stop())
	return first
}

// tpchInstance is the tpch-batch workload: tables loaded once, each job one
// pass over QA–QE.
type tpchInstance struct {
	c    *batch.Cluster
	data *datagen.TPCH
	db   *batch.DB
	ref  [5]float64
}

// eagerSkywayFactory is batch.SkywayFactory with the decode path pinned to
// eager absolutization, whatever SKYWAY_ARENA says.
func eagerSkywayFactory() batch.CodecFactory {
	inner := batch.SkywayFactory()
	return func(c *batch.Cluster, class string, needed []string) serial.Codec {
		codec := inner(c, class, needed)
		if sk, ok := codec.(*serial.SkywayCodec); ok {
			sk.Arena = false
		}
		return codec
	}
}

func setupTPCH(seed uint64, codec string, rec *recorder) (inst instance, gen time.Duration, err error) {
	if codec != "" && codec != "skyway" {
		return nil, gen, fmt.Errorf("tpch-batch runs skyway only, not %q", codec)
	}
	t0 := time.Now()
	data := datagen.GenTPCH(tpchScale, seed)
	gen = time.Since(t0)
	cp := klass.NewPath()
	c, err := batch.NewCluster(cp, batch.Config{Workers: tpchWorkers}, tracedFactory(eagerSkywayFactory(), rec))
	if err != nil {
		return nil, gen, err
	}
	var rts []*vm.Runtime
	for _, ex := range c.Execs {
		rts = append(rts, ex.RT)
	}
	rec.setRuntimes(rts, c.Execs[0].RT, true)
	db, err := batch.Load(c, data)
	if err != nil {
		return nil, gen, err
	}
	return &tpchInstance{c: c, data: data, db: db}, gen, nil
}

func (t *tpchInstance) job(rec *recorder) ([]opResult, error) {
	ops := make([]opResult, 0, 5)
	for _, q := range batch.AllQueries() {
		idx, prev := rec.begin("batch."+string(q), "query")
		start := time.Now()
		bd, digest, err := batch.Run(t.c, q, t.db)
		wall := time.Since(start)
		rec.end(idx, prev)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q, err)
		}
		ops = append(ops, opResult{name: string(q), bd: bd, wall: wall, digest: digest, cnt: rec.take()})
	}
	return ops, nil
}

func (t *tpchInstance) reference()                    { t.ref = refQueries(t.data) }
func (t *tpchInstance) want(i int) float64            { return t.ref[i] }
func (t *tpchInstance) match(i int, got float64) bool { return tpchClose(got, t.ref[i]) }

func (t *tpchInstance) gcStats() gc.Stats { return t.c.GCStats() }

func (t *tpchInstance) heapPeaks() (uint64, uint64) { return t.c.PeakHeap, t.c.BufferPeak() }

func (t *tpchInstance) serverRSSMB() float64 { return 0 }

func (t *tpchInstance) close() error {
	t.db.Free()
	return nil
}
