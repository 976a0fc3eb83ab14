package main

import (
	"sort"
	"strings"
	"time"

	"skyway/internal/gc"
)

// gcDelta is the collector activity during one job, summed over the
// cluster's runtimes.
type gcDelta struct {
	pause         time.Duration
	scavenges     int
	fullGCs       int
	cardsScanned  uint64
	pinnedScanned uint64
}

func diffGC(before, after gc.Stats) gcDelta {
	return gcDelta{
		pause:         after.TotalPause() - before.TotalPause(),
		scavenges:     after.Scavenges - before.Scavenges,
		fullGCs:       after.FullGCs - before.FullGCs,
		cardsScanned:  after.CardsScanned - before.CardsScanned,
		pinnedScanned: after.PinnedScanned - before.PinnedScanned,
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload does not
// use).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

const mb = 1e6

// endToEndMetrics are what a user of the system sees, measured on untraced
// jobs.
func endToEndMetrics(jobs []jobRecord, phase time.Duration, setups []float64, rssMB float64) map[string]metric {
	var walls, models, shuffle []float64
	var records int64
	for _, jr := range jobs {
		walls = append(walls, jr.wall.Seconds())
		var model time.Duration
		var bytes int64
		for _, op := range jr.ops {
			model += op.bd.Total()
			bytes += op.bd.ShuffleBytes
			records += op.bd.Records
		}
		models = append(models, model.Seconds())
		shuffle = append(shuffle, float64(bytes)/mb)
	}
	return map[string]metric{
		"job_s":         {median(walls), "s"},
		"records_per_s": {float64(records) / phase.Seconds(), "records/s"},
		"job_model_s":   {median(models), "s"},
		"shuffle_mb":    {median(shuffle), "MB"},
		"peak_rss_mb":   {rssMB, "MB"},
		"setup_s":       {median(setups), "s"},
	}
}

// layerInputs are the per-layer figures gathered outside the jobs.
type layerInputs struct {
	gen, regTime         float64
	regCount             int
	heapPeak, bufferPeak uint64
	serverRSS            float64
	batch                bool
}

// perLayerMetrics are computed from the traced jobs (GC counts from every
// job: the wrappers do not touch the managed heap). Per-job figures are
// medians over the traced jobs; rates are ratios of totals; GC figures are
// means per job, so a collection every few jobs still shows.
func perLayerMetrics(jobs []jobRecord, in layerInputs) map[string]metric {
	var (
		wall, selfT, compute, modelIO                   []float64
		encS, decS, records, objects, promotions        []float64
		regions, regionsLive, arenaPeak                 []float64
		putS, fetchS, openS, attempts, blocks           []float64
		untraced                                        []float64
		encBytes, encTime, decBytes, decTime            float64
		putBytes, putTime, fetchBytes, fetchTime        float64
		probeReads, probeTime, shuffleBytes, recordsSum float64
		attemptsSum, blocksSum                          float64
		gcPause, gcScav, gcFull, gcCards, gcPinned      []float64
	)
	queries := map[string][]float64{}
	for _, jr := range jobs {
		gcPause = append(gcPause, jr.gc.pause.Seconds())
		gcScav = append(gcScav, float64(jr.gc.scavenges))
		gcFull = append(gcFull, float64(jr.gc.fullGCs))
		gcCards = append(gcCards, float64(jr.gc.cardsScanned))
		gcPinned = append(gcPinned, float64(jr.gc.pinnedScanned))
		if !jr.traced {
			untraced = append(untraced, jr.wall.Seconds())
			continue
		}
		var c jobCounters
		var comp, mio time.Duration
		var sb, rec int64
		for _, op := range jr.ops {
			add(&c, op.cnt)
			comp += op.bd.Compute
			mio += op.bd.WriteIO + op.bd.ReadIO
			sb += op.bd.ShuffleBytes
			rec += op.bd.Records
			queries[op.name] = append(queries[op.name], op.wall.Seconds())
		}
		wall = append(wall, jr.wall.Seconds())
		selfT = append(selfT, (jr.wall - c.leafTime).Seconds())
		compute = append(compute, comp.Seconds())
		modelIO = append(modelIO, mio.Seconds())
		encS = append(encS, c.encTime.Seconds())
		decS = append(decS, c.decTime.Seconds())
		records = append(records, float64(c.decRecords))
		objects = append(objects, float64(c.objects))
		promotions = append(promotions, float64(c.promotions))
		regions = append(regions, float64(c.regions))
		regionsLive = append(regionsLive, float64(jr.regions))
		arenaPeak = append(arenaPeak, float64(c.arenaPeak)/mb)
		putS = append(putS, c.putTime.Seconds())
		fetchS = append(fetchS, c.fetchTime.Seconds())
		openS = append(openS, c.openTime.Seconds())
		attempts = append(attempts, float64(c.fetchAttempts))
		blocks = append(blocks, float64(c.blocksFetched))
		encBytes += float64(c.encBytes)
		encTime += c.encTime.Seconds()
		decBytes += float64(c.decBytes)
		decTime += c.decTime.Seconds()
		putBytes += float64(c.putBytes)
		putTime += c.putTime.Seconds()
		fetchBytes += float64(c.fetchBytes)
		fetchTime += c.fetchTime.Seconds()
		probeReads += float64(c.probeReads)
		probeTime += float64(c.probeTime.Nanoseconds())
		shuffleBytes += float64(sb)
		recordsSum += float64(rec)
		attemptsSum += float64(c.fetchAttempts)
		blocksSum += float64(c.blocksFetched)
	}
	m := map[string]metric{
		"datagen.gen_s":                {in.gen, "s"},
		"registry.exchanges":           {float64(in.regCount), "count"},
		"registry.exchange_s":          {in.regTime, "s"},
		"core.encode_s":                {median(encS), "s"},
		"core.encode_mb_per_s":         {ratio(encBytes/mb, encTime), "MB/s"},
		"core.decode_s":                {median(decS), "s"},
		"core.decode_mb_per_s":         {ratio(decBytes/mb, decTime), "MB/s"},
		"core.records":                 {median(records), "count"},
		"core.objects_decoded":         {median(objects), "count"},
		"core.bytes_per_record":        {ratio(shuffleBytes, recordsSum), "B"},
		"vm.field_read_ns":             {ratio(probeTime, probeReads), "ns"},
		"vm.promotions":                {median(promotions), "count"},
		"arena.regions_per_job":        {median(regions), "count"},
		"arena.mapped_mb_peak":         {maxOf(arenaPeak), "MB"},
		"arena.regions_live_after_job": {maxOf(regionsLive), "count"},
		"gc.pause_s":                   {mean(gcPause), "s"},
		"gc.scavenges":                 {mean(gcScav), "count"},
		"gc.full_gcs":                  {mean(gcFull), "count"},
		"gc.cards_scanned":             {mean(gcCards), "count"},
		"gc.pinned_scanned":            {mean(gcPinned), "count"},
		"heap.peak_mb":                 {float64(in.heapPeak) / mb, "MB"},
		"heap.buffer_peak_mb":          {float64(in.bufferPeak) / mb, "MB"},
		"transport.put_s":              {median(putS), "s"},
		"transport.fetch_s":            {median(fetchS), "s"},
		"transport.put_mb_per_s":       {ratio(putBytes/mb, putTime), "MB/s"},
		"transport.fetch_mb_per_s":     {ratio(fetchBytes/mb, fetchTime), "MB/s"},
		"transport.round_open_s":       {median(openS), "s"},
		"transport.fetches_per_block":  {ratio(attemptsSum, blocksSum), "ratio"},
		"transport.fetch_attempts":     {median(attempts), "count"},
		"transport.blocks_fetched":     {median(blocks), "count"},
		"transport.server_rss_mb":      {in.serverRSS, "MB"},
		"netsim.model_io_s":            {median(modelIO), "s"},
		"trace.job_s":                  {median(wall), "s"},
		"trace.overhead_s":             {median(wall) - median(untraced), "s"},
		"dataflow.compute_s":           {0, "s"},
		"dataflow.self_s":              {0, "s"},
		"batch.self_s":                 {0, "s"},
		"batch.qa_s":                   {0, "s"},
		"batch.qb_s":                   {0, "s"},
		"batch.qc_s":                   {0, "s"},
		"batch.qd_s":                   {0, "s"},
		"batch.qe_s":                   {0, "s"},
	}
	if in.batch {
		m["batch.self_s"] = metric{median(selfT), "s"}
		for q, walls := range queries {
			m["batch."+strings.ToLower(q)+"_s"] = metric{median(walls), "s"}
		}
	} else {
		m["dataflow.compute_s"] = metric{median(compute), "s"}
		m["dataflow.self_s"] = metric{median(selfT), "s"}
	}
	return m
}

// add folds one operation's counters into a job's.
func add(dst *jobCounters, c jobCounters) {
	dst.encRecords += c.encRecords
	dst.decRecords += c.decRecords
	dst.objects += c.objects
	dst.encBytes += c.encBytes
	dst.decBytes += c.decBytes
	dst.encTime += c.encTime
	dst.decTime += c.decTime
	dst.regions += c.regions
	dst.promotions += c.promotions
	if c.arenaPeak > dst.arenaPeak {
		dst.arenaPeak = c.arenaPeak
	}
	dst.openTime += c.openTime
	dst.putTime += c.putTime
	dst.fetchTime += c.fetchTime
	dst.putBytes += c.putBytes
	dst.fetchBytes += c.fetchBytes
	dst.fetchAttempts += c.fetchAttempts
	dst.blocksFetched += c.blocksFetched
	dst.regExchanges += c.regExchanges
	dst.regTime += c.regTime
	dst.probeTime += c.probeTime
	dst.probeReads += c.probeReads
	dst.leafTime += c.leafTime
}
