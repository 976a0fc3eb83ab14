package main

import (
	"math"
	"sort"

	"skyway/internal/datagen"
)

// Reference computations, made over the generated inputs in plain Go — no
// managed heap, no codec, no shuffle — against which every timed job's
// output is checked. They follow the engines' stated semantics but not
// their algorithms.

// refTriangles counts the triangles of g's underlying simple undirected
// graph (edges symmetrized, duplicates and self-loops dropped) with the
// node-iterator: for every vertex v and every pair u < w of its
// higher-numbered neighbours, test whether u and w are adjacent. The
// dataflow engine instead ships degree-ordered adjacency lists and
// merge-intersects them, so the two share only the graph.
func refTriangles(g *datagen.Graph) int64 {
	n := g.N
	adj := make([]map[int32]bool, n)
	for v := range adj {
		adj[v] = make(map[int32]bool)
	}
	for u, nbrs := range g.Adj {
		for _, v := range nbrs {
			if int(v) == u {
				continue
			}
			adj[u][v] = true
			adj[v][int32(u)] = true
		}
	}
	var count int64
	higher := make([]int32, 0, 64)
	for v := 0; v < n; v++ {
		higher = higher[:0]
		for u := range adj[v] {
			if int(u) > v {
				higher = append(higher, u)
			}
		}
		for i := 0; i < len(higher); i++ {
			nu := adj[higher[i]]
			for j := i + 1; j < len(higher); j++ {
				if nu[higher[j]] {
					count++
				}
			}
		}
	}
	return count
}

// prTolerance is the relative tolerance on PageRank rank mass: the engine
// sums contributions in shuffle-arrival order, the reference in vertex
// order, so the float64 sums differ in their last bits.
const prTolerance = 1e-9

// refRankMass runs iters rounds of the engine's PageRank rule in float64:
// every vertex starts at rank 1; a vertex with out-edges sends
// rank/outdegree along each edge (duplicate edges count twice, as in the
// engine's adjacency); a dangling vertex sends nothing, so its rank mass
// leaks; every vertex's new rank is 0.15 + 0.85 × the sum it received.
// Returns the sum of all ranks.
func refRankMass(g *datagen.Graph, iters int) float64 {
	rank := make([]float64, g.N)
	for v := range rank {
		rank[v] = 1
	}
	sum := make([]float64, g.N)
	for it := 0; it < iters; it++ {
		for v := range sum {
			sum[v] = 0
		}
		for v, nbrs := range g.Adj {
			if len(nbrs) == 0 {
				continue
			}
			c := rank[v] / float64(len(nbrs))
			for _, u := range nbrs {
				sum[u] += c
			}
		}
		for v := range rank {
			rank[v] = 0.15 + 0.85*sum[v]
		}
	}
	var mass float64
	for _, r := range rank {
		mass += r
	}
	return mass
}

// closeRel reports whether got is within rel of want, relatively.
func closeRel(got, want, rel float64) bool {
	return math.Abs(got-want) <= rel*math.Abs(want)
}

// tpchTolerance bounds the difference between an engine digest and its
// reference: digests are rounded to cents after float64 sums whose order
// differs (engine: exchange-arrival order; reference: table order), so a
// sum sitting on a rounding boundary may land one cent apart.
func tpchClose(got, want float64) bool {
	return math.Abs(got-want) <= 0.01+1e-9*math.Abs(want)
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

// refQueries returns the reference digests of QA–QE, in that order, ported
// from the query semantics stated in internal/batch/queries.go.
func refQueries(db *datagen.TPCH) [5]float64 {
	return [5]float64{refQA(db), refQB(db), refQC(db), refQD(db), refQE(db)}
}

// refQA: pricing summary of the items shipped by 120 days before the end of
// the date span, grouped by (returnflag, linestatus).
func refQA(db *datagen.TPCH) float64 {
	const cutoff = datagen.TPCHDays - 120
	type agg struct {
		qty, price, disc, charge float64
		n                        int64
	}
	res := make(map[int64]*agg)
	for i := range db.LineItems {
		li := &db.LineItems[i]
		if int64(li.ShipDate) > cutoff {
			continue
		}
		key := int64(li.ReturnFlag)<<8 | int64(li.LineStatus)
		a := res[key]
		if a == nil {
			a = &agg{}
			res[key] = a
		}
		a.qty += li.Quantity
		a.price += li.ExtendedPrice
		a.disc += li.ExtendedPrice * (1 - li.Discount)
		a.charge += li.ExtendedPrice * (1 - li.Discount) * (1 + li.Tax)
		a.n++
	}
	var digest float64
	for _, key := range sortedKeys(res) {
		a := res[key]
		digest += float64(key) + a.qty + a.price + a.disc + a.charge + float64(a.n)
	}
	return round2(digest)
}

// refQB: the minimum supply cost per (part, supplier region).
func refQB(db *datagen.TPCH) float64 {
	nationRegion := make(map[int32]int32, len(db.Nations))
	for _, n := range db.Nations {
		nationRegion[n.NationKey] = n.RegionKey
	}
	suppRegion := make(map[int32]int32, len(db.Suppliers))
	for _, s := range db.Suppliers {
		suppRegion[s.SuppKey] = nationRegion[s.NationKey]
	}
	type prKey struct{ part, region int32 }
	mins := make(map[prKey]float64)
	for _, ps := range db.PartSupps {
		region, ok := suppRegion[ps.SuppKey]
		if !ok {
			continue
		}
		k := prKey{ps.PartKey, region}
		if cur, ok := mins[k]; !ok || ps.SupplyCost < cur {
			mins[k] = ps.SupplyCost
		}
	}
	keys := make([]prKey, 0, len(mins))
	for k := range mins {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].part != keys[j].part {
			return keys[i].part < keys[j].part
		}
		return keys[i].region < keys[j].region
	})
	var digest float64
	for _, k := range keys {
		digest += float64(k.part)*7 + float64(k.region)*13 + mins[k]
	}
	return round2(digest)
}

// refQC: revenue of the BUILDING-segment orders placed before mid-span whose
// items shipped after it; the digest is the sum of the ten largest.
func refQC(db *datagen.TPCH) float64 {
	const date = datagen.TPCHDays / 2
	building := make(map[int32]bool)
	for _, c := range db.Customers {
		if c.MktSegment == "BUILDING" {
			building[c.CustKey] = true
		}
	}
	qualified := make(map[int32]bool)
	for _, o := range db.Orders {
		if int64(o.OrderDate) < date && building[o.CustKey] {
			qualified[o.OrderKey] = true
		}
	}
	revenue := make(map[int32]float64)
	for i := range db.LineItems {
		li := &db.LineItems[i]
		if int64(li.ShipDate) > date && qualified[li.OrderKey] {
			revenue[li.OrderKey] += li.ExtendedPrice * (1 - li.Discount)
		}
	}
	vals := make([]float64, 0, len(revenue))
	for _, v := range revenue {
		vals = append(vals, v)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	var digest float64
	for i := 0; i < len(vals) && i < 10; i++ {
		digest += vals[i]
	}
	return round2(digest)
}

// refQD: late orders (some item received after its commit date) per quarter
// of the year starting at mid-span, weighted by quarter number.
func refQD(db *datagen.TPCH) float64 {
	const yearStart = datagen.TPCHDays / 2
	const yearEnd = yearStart + 360
	late := make(map[int32]bool)
	for i := range db.LineItems {
		li := &db.LineItems[i]
		if li.ReceiptDate > li.CommitDate {
			late[li.OrderKey] = true
		}
	}
	var counts [4]int64
	for _, o := range db.Orders {
		if int64(o.OrderDate) < yearStart || int64(o.OrderDate) >= yearEnd || !late[o.OrderKey] {
			continue
		}
		q := (int64(o.OrderDate) - yearStart) / 90
		if q > 3 {
			q = 3
		}
		counts[q]++
	}
	var digest float64
	for q, n := range counts {
		digest += float64(n) * float64(q+1)
	}
	return digest
}

// refQE: revenue lost to returned items, per customer; the digest is the
// total plus the top twenty weighted by rank.
func refQE(db *datagen.TPCH) float64 {
	orderCust := make(map[int32]int32, len(db.Orders))
	for _, o := range db.Orders {
		orderCust[o.OrderKey] = o.CustKey
	}
	lost := make(map[int32]float64)
	for i := range db.LineItems {
		li := &db.LineItems[i]
		if li.ReturnFlag != 'R' {
			continue
		}
		if cust, ok := orderCust[li.OrderKey]; ok {
			lost[cust] += li.ExtendedPrice * (1 - li.Discount)
		}
	}
	type kv struct {
		c int32
		v float64
	}
	all := make([]kv, 0, len(lost))
	for c, v := range lost {
		all = append(all, kv{c, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].c < all[j].c
	})
	var total, digest float64
	for _, e := range all {
		total += e.v
	}
	for i := 0; i < len(all) && i < 20; i++ {
		digest += all[i].v * float64(i+1)
	}
	return round2(total + digest)
}

func sortedKeys[V any](m map[int64]V) []int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
