package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"runtime/debug"
	"testing"
	"time"

	"skyway/internal/arena"
	"skyway/internal/batch"
	"skyway/internal/dataflow"
	"skyway/internal/datagen"
	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/registry"
	"skyway/internal/serial"
	"skyway/internal/vm"
)

// TestMain lets the test binary serve as the pr-tcp executor processes, the
// same re-exec trampoline the benchmark binary uses.
func TestMain(m *testing.M) {
	if id := os.Getenv(executorEnvID); id != "" {
		os.Exit(runExecutorProcess(id))
	}
	if len(os.Args) > 1 && os.Args[1] == setupOnlyFlag {
		os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func graphOf(n int, edges ...[2]int32) *datagen.Graph {
	g := &datagen.Graph{N: n, Adj: make([][]int32, n)}
	for _, e := range edges {
		g.Adj[e[0]] = append(g.Adj[e[0]], e[1])
		g.M++
	}
	return g
}

func TestRefTrianglesHandChecked(t *testing.T) {
	cases := []struct {
		name string
		g    *datagen.Graph
		want int64
	}{
		{"K4", graphOf(4, [2]int32{0, 1}, [2]int32{0, 2}, [2]int32{0, 3}, [2]int32{1, 2}, [2]int32{1, 3}, [2]int32{2, 3}), 4},
		// Reversed and duplicated edges and self-loops do not change the
		// simple undirected graph.
		{"K4 messy", graphOf(4, [2]int32{1, 0}, [2]int32{0, 1}, [2]int32{0, 2}, [2]int32{3, 0}, [2]int32{1, 2},
			[2]int32{2, 1}, [2]int32{1, 3}, [2]int32{2, 3}, [2]int32{2, 2}), 4},
		{"triangle", graphOf(3, [2]int32{0, 1}, [2]int32{1, 2}, [2]int32{2, 0}), 1},
		{"path", graphOf(4, [2]int32{0, 1}, [2]int32{1, 2}, [2]int32{2, 3}), 0},
		{"square with chord", graphOf(4, [2]int32{0, 1}, [2]int32{1, 2}, [2]int32{2, 3}, [2]int32{3, 0}, [2]int32{0, 2}), 2},
		// K5 has C(5,3) = 10 triangles.
		{"K5", graphOf(5, [2]int32{0, 1}, [2]int32{0, 2}, [2]int32{0, 3}, [2]int32{0, 4}, [2]int32{1, 2},
			[2]int32{1, 3}, [2]int32{1, 4}, [2]int32{2, 3}, [2]int32{2, 4}, [2]int32{3, 4}), 10},
	}
	for _, tc := range cases {
		if got := refTriangles(tc.g); got != tc.want {
			t.Errorf("%s: %d triangles, want %d", tc.name, got, tc.want)
		}
	}
}

func TestRefRankMassHandChecked(t *testing.T) {
	// A 2-cycle keeps every rank at 1.
	if got := refRankMass(graphOf(2, [2]int32{0, 1}, [2]int32{1, 0}), 5); got != 2 {
		t.Errorf("2-cycle mass %v, want 2", got)
	}
	// 0 -> 1 with 1 dangling: after one round rank0 = 0.15 (nothing in),
	// rank1 = 0.15 + 0.85*1 = 1; after two, rank1 = 0.15 + 0.85*0.15.
	if got := refRankMass(graphOf(2, [2]int32{0, 1}), 1); math.Abs(got-1.15) > 1e-12 {
		t.Errorf("one round mass %v, want 1.15", got)
	}
	if got, want := refRankMass(graphOf(2, [2]int32{0, 1}), 2), 0.15+0.15+0.85*0.15; math.Abs(got-want) > 1e-12 {
		t.Errorf("two rounds mass %v, want %v", got, want)
	}
	// A duplicate edge carries two shares: 0 -> {1, 1, 2}.
	g := graphOf(3, [2]int32{0, 1}, [2]int32{0, 1}, [2]int32{0, 2})
	if got, want := refRankMass(g, 1), 0.15+(0.15+0.85*2.0/3)+(0.15+0.85/3); math.Abs(got-want) > 1e-12 {
		t.Errorf("duplicate-edge mass %v, want %v", got, want)
	}
}

func TestRefQueriesHandChecked(t *testing.T) {
	db := &datagen.TPCH{
		Nations:   []datagen.TPCHNation{{NationKey: 0, RegionKey: 0}, {NationKey: 1, RegionKey: 1}},
		Suppliers: []datagen.TPCHSupplier{{SuppKey: 0, NationKey: 0}, {SuppKey: 1, NationKey: 1}, {SuppKey: 2, NationKey: 1}},
		Customers: []datagen.TPCHCustomer{{CustKey: 0, MktSegment: "BUILDING"}, {CustKey: 1, MktSegment: "MACHINERY"}},
		PartSupps: []datagen.TPCHPartSupp{
			{PartKey: 0, SuppKey: 0, SupplyCost: 5}, {PartKey: 0, SuppKey: 1, SupplyCost: 7}, {PartKey: 0, SuppKey: 2, SupplyCost: 3},
		},
		Orders: []datagen.TPCHOrder{
			{OrderKey: 0, CustKey: 0, OrderDate: 10},                       // pending BUILDING order
			{OrderKey: 1, CustKey: 1, OrderDate: datagen.TPCHDays/2 + 100}, // in QD's year, second quarter
		},
		LineItems: []datagen.TPCHLineItem{
			{OrderKey: 0, Quantity: 1, ExtendedPrice: 100, Discount: 0.1, ShipDate: datagen.TPCHDays/2 + 1,
				ReturnFlag: 'R', LineStatus: 'F', CommitDate: 5, ReceiptDate: 6},
			{OrderKey: 1, Quantity: 2, ExtendedPrice: 50, ShipDate: 20, ReturnFlag: 'N', LineStatus: 'O',
				CommitDate: 30, ReceiptDate: 40},
		},
	}
	got := refQueries(db)
	// QA: both items shipped before the cutoff, one group each:
	// key 'R'<<8|'F' with qty 1, price 100, disc 90, charge 90, count 1, and
	// key 'N'<<8|'O' with qty 2, price 50, disc 50, charge 50, count 1.
	qa := float64(int64('R')<<8|int64('F')) + 1 + 100 + 90 + 90 + 1 +
		float64(int64('N')<<8|int64('O')) + 2 + 50 + 50 + 50 + 1
	// QB: part 0 region 0 min 5, region 1 min 3 → (0+0+5) + (0+13+3).
	qb := 5.0 + 16
	// QC: order 0 qualifies, its item shipped after mid-span: 100*0.9.
	qc := 90.0
	// QD: order 1 is late (received 40 > commit 30), second quarter → 2.
	qd := 2.0
	// QE: customer 0 lost 90; total 90 plus rank-1 weight 90.
	qe := 180.0
	want := [5]float64{qa, qb, qc, qd, qe}
	if got != want {
		t.Errorf("reference digests %v, want %v", got, want)
	}
}

// TestRefQueriesMatchEngine runs QA–QE through the batch engine with its
// built-in tuple serializer on a small generated database: the references
// and the engine must agree.
func TestRefQueriesMatchEngine(t *testing.T) {
	gen := datagen.GenTPCH(0.1, 7)
	c, err := batch.NewCluster(klass.NewPath(), batch.Config{Workers: 3, Heap: smallBatchHeap()}, batch.BuiltinFactory())
	if err != nil {
		t.Fatal(err)
	}
	db, err := batch.Load(c, gen)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Free()
	want := refQueries(gen)
	for i, q := range batch.AllQueries() {
		_, got, err := batch.Run(c, q, db)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !tpchClose(got, want[i]) {
			t.Errorf("%s: engine %v, reference %v", q, got, want[i])
		}
	}
}

func smallBatchHeap() heap.Config {
	h := batch.DefaultHeap()
	h.EdenSize, h.OldSize, h.BufferSize = 16<<20, 32<<20, 32<<20
	return h
}

// TestTracedCodecForwardsCapabilities checks that the wrapper exposes what
// the engines probe for, with the inner codec's answers.
func TestTracedCodecForwardsCapabilities(t *testing.T) {
	cp := klass.NewPath()
	dataflow.WorkloadClasses(cp)
	rt, err := vm.NewRuntime(cp, vm.Options{Name: "probe", Heap: smallDataflowHeap(), Registry: registry.InProc{R: registry.NewRegistry()}})
	if err != nil {
		t.Fatal(err)
	}
	inner := serial.NewSkywayCodec(rt)
	inner.Arena = true
	rec := newRecorder()
	codec := &tracedCodec{inner: inner, r: rec}
	if cc, ok := any(codec).(serial.ConcurrentCodec); !ok || !cc.ConcurrentEncoders() {
		t.Fatal("ConcurrentEncoders not forwarded")
	}
	kryo := &tracedCodec{inner: serial.KryoCodec(dataflow.WorkloadRegistration()), r: rec}
	if kryo.ConcurrentEncoders() {
		t.Fatal("kryo wrapper claims concurrent encoders")
	}

	mk := rt.MustLoad(dataflow.RankMsgClass)
	var buf bytes.Buffer
	enc := codec.NewEncoder(rt, &buf)
	for i := 0; i < 3; i++ {
		msg := rt.MustNew(mk)
		rt.SetLong(msg, mk.FieldByName("dst"), int64(i))
		if err := enc.Write(msg); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := codec.NewDecoder(rt, bytes.NewReader(buf.Bytes()))
	n := 0
	for {
		if _, err := dec.Read(); err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatal(err)
			}
			break
		}
		n++
	}
	ar, ok := dec.(interface{ ArenaRegion() *arena.Region })
	if !ok || ar.ArenaRegion() == nil {
		t.Fatal("ArenaRegion not forwarded")
	}
	if rt.Arena.Regions() != 1 {
		t.Fatalf("%d live regions before Free, want 1", rt.Arena.Regions())
	}
	f, ok := dec.(interface{ Free() })
	if !ok {
		t.Fatal("Free not forwarded")
	}
	f.Free()
	if rt.Arena.Regions() != 0 {
		t.Fatalf("%d live regions after Free, want 0", rt.Arena.Regions())
	}
	if c := rec.take(); n != 3 || c.encRecords != 3 || c.decRecords != 3 || c.regions != 1 {
		t.Fatalf("decoded %d, counters %+v", n, c)
	}
}

func smallDataflowHeap() heap.Config {
	h := dataflow.DefaultWorkerHeap()
	h.EdenSize, h.OldSize, h.BufferSize = 8<<20, 16<<20, 16<<20
	return h
}

// TestExecutorsFailFast checks that executors which cannot join the
// cluster fail set-up with an error instead of hanging, and are reaped.
func TestExecutorsFailFast(t *testing.T) {
	es, err := spawnExecutors(2, "127.0.0.1:1") // nothing listens on port 1
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = es.awaitReady(announceDeadline)
	if err == nil {
		t.Fatal("executors announced to a registry that does not exist")
	}
	if time.Since(start) >= announceDeadline {
		t.Fatalf("awaitReady waited out the deadline instead of seeing the exit: %v", err)
	}
	procs := es.procs
	es.stop()
	for i, p := range procs {
		select {
		case <-p.exited:
		default:
			t.Errorf("executor %d not reaped", i)
		}
	}
}

// TestWorkloadsSmoke runs every workload briefly, untraced and traced, and
// checks that all operations pass their checks and that the printed metrics
// are exactly the ones BENCHMARK.json declares, with the same units.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots three clusters")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(decl.Workloads), len(workloadNames))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadNames[i] {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloadNames[i])
		}
	}
	// Run from the checkout root, where the benchmark's outputs go.
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("skybench")
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			// tpch-batch, the quickest to boot, also runs a set-up in a
			// child process.
			setups := 1
			if w == "tpch-batch" && !trace {
				setups = 2
			}
			o := options{workload: w, seed: 3, seconds: 0.5, trace: trace, setups: setups,
				traceOut: t.TempDir() + "/trace.json"}
			res, err := runBench(context.Background(), o, io.Discard)
			debug.FreeOSMemory()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := decl.EndToEnd
			if trace {
				want = decl.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
			if trace {
				if _, err := os.Stat(o.traceOut); err != nil {
					t.Errorf("%s: no trace written: %v", w, err)
				}
			}
		}
	}
}

// TestChecksFlagDivergence feeds the checks jobs that leak a region or
// whose traced run diverges from the untraced one.
func TestChecksFlagDivergence(t *testing.T) {
	op := func(digest float64, bytes int64) opResult {
		o := opResult{name: "job", digest: digest}
		o.bd.ShuffleBytes, o.bd.Records = bytes, 10
		o.cnt.encRecords, o.cnt.decRecords = 10, 10
		return o
	}
	inst := &dataflowInstance{ref: 4, check: func(got, want float64) bool { return got == want }}
	warm := []opResult{op(4, 100)}
	jobs := []jobRecord{
		{ops: []opResult{op(4, 100)}},
		{traced: true, ops: []opResult{op(4, 100)}, regions: 2}, // leaked regions
		{ops: []opResult{op(5, 100)}},                           // wrong digest
		{traced: true, ops: []opResult{op(4, 90)}},              // different shuffle bytes
	}
	failed, problems := checkJobs(inst, warm, jobs)
	if failed != 3 || len(problems) != 3 {
		t.Fatalf("checkJobs: %d failed, problems %q; want 3", failed, problems)
	}
	if p := selfCheck(jobs); len(p) != 2 {
		t.Fatalf("selfCheck found %q, want the region leak and the byte difference", p)
	}
	if p := selfCheck(jobs[:1]); len(p) != 0 {
		t.Fatalf("selfCheck on an untraced-only run: %q", p)
	}
}
