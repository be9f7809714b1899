package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/ahocorasick"
	"repro/internal/textgen"
)

// Input sizes. Each is chosen so that one measured window holds several
// hundred requests, a slice of it tens (see README, "Sizes").
const (
	bulkDicts     = 4
	bulkTexts     = 8
	bulkTextBytes = 256 << 10
	// The tree walk's and the scanner's cost per byte varies by a tenth from
	// one seeded dictionary or text to the next; stream and cz_inc therefore
	// rotate through several (dictionary, text) pairs, so that a run measures
	// their average and not one draw.
	streamPairs   = 8
	streamBytes   = 128 << 10
	czPairs       = 4
	czRepBytes    = 256 << 10
	czRepPlantGap = 32 << 10 // sparse, so the container stays highly compressible
	czIncBytes    = 128 << 10
	churnTexts    = 64
	churnBytes    = 4 << 10
	// churnDictsPerSecond sizes the pool of fresh dictionaries the churn
	// writer may register: twice what one connection gets through.
	churnDictsPerSecond = 80
	// openLoopRate is the pinned arrival rate of small's open-loop phase.
	openLoopRate = 600.0
	// registerProbes is the number of fresh dictionaries registered for
	// register_p25_ms where the workload has no writer of its own, a third of
	// them after each measured part.
	registerProbes = 33
	// ballastDicts L-shaped dictionaries are added to every persistent
	// deployment: a warm start of one S dictionary is 15 ms of process
	// start-up, which read 13 or 25 ms from one run to the next; two 7.5 MB
	// bundles make the cycle 0.2 s of loading.
	ballastDicts = 2
	// bulkStagger is how many extra requests dictionary k gets k times over
	// before bulk's window, see measureBulk.
	bulkStagger = 16
)

// workload is one traffic mix: what is deployed, what is sent, and how the
// measured window is driven.
type workload struct {
	name  string
	why   string
	conns int // load connections, never more than nproc
	// writes marks a workload whose own traffic registers dictionaries; the
	// others get registration probes between their measured parts.
	writes bool
	// inputs generates everything from the seed: the dictionaries to
	// register at set-up and, once their ids are known, the request pool.
	inputs func(seed uint64, corpusDir string) (*inputs, error)
	// measure drives one measured part of the given length; nil means one
	// closed loop.
	measure func(r *run, part time.Duration)
}

// inputs is a workload's generated data.
type inputs struct {
	dicts [][][]byte
	// pool builds the round-robin request pool against a deployment.
	pool func(d *deployment) []*request
	// texts are the pooled texts and bodies, where they differ from the
	// texts, the bodies sent for them (LZ1R1 containers).
	texts, bodies [][]byte
}

var workloads = []workload{
	{
		name: "small", conns: 2,
		why:    "64 B matches: socket, framing, admission and batch wait are all of the time, the scan none",
		inputs: smallInputs, measure: measureSmall,
	},
	{
		name: "bulk", conns: 2,
		why:    "256 KiB matches over 4 dictionaries (24 MB of tables): dense scan, base64/JSON framing and the sampled oracle dominate",
		inputs: bulkInputs, measure: measureBulk,
	},
	{
		name: "stream", conns: 1,
		why:    "raw 128 KiB bodies to /match/stream over 8 dictionaries: the only workload served by the tree walk and the checker",
		inputs: streamInputs,
	},
	{
		name: "cz_inc", conns: 1,
		why:    "LZ1R1 containers at ratio 0.9 to /match/compressed: czsearch honest-loss case, same layer opposite regime",
		inputs: czIncInputs,
	},
	{
		name: "churn", conns: 2,
		why:    "4 KiB reads beside a writer registering fresh dictionaries until the registry evicts: compile cost against scans",
		inputs: churnInputs, measure: measureChurn, writes: true,
	},
}

// post is a POST to route of workload dictionary k on d's entry node.
func post(d *deployment, k int, route, ctype string, body, text []byte, check func(int, []byte, bool) error) *request {
	return &request{url: d.url(k, route), ctype: ctype, body: body, dict: k, text: text, check: check}
}

// matchPool is the pool of buffered match requests for texts against
// dictionary 0, want[i] being the expected answer for texts[i].
func matchPool(d *deployment, texts [][]byte, want [][]hit) []*request {
	pool := make([]*request, len(texts))
	for i, t := range texts {
		pool[i] = post(d, 0, "/match", "application/json", matchBody(t), t, matchCheck(want[i]))
	}
	return pool
}

func smallInputs(seed uint64, _ string) (*inputs, error) {
	dict := genDict(subSeed(seed, 1), shapeS)
	texts := smallPool(seed, dict)
	ac := ahocorasick.New(dict)
	want := make([][]hit, len(texts))
	for i, t := range texts {
		want[i] = oracleHits(ac, t)
	}
	return &inputs{
		dicts: [][][]byte{dict},
		texts: texts,
		pool:  func(d *deployment) []*request { return matchPool(d, texts, want) },
	}, nil
}

func bulkInputs(seed uint64, _ string) (*inputs, error) {
	dicts := make([][][]byte, bulkDicts)
	for k := range dicts {
		dicts[k] = genDict(subSeed(seed, 20+uint64(k)), shapeL)
	}
	texts := make([][]byte, bulkTexts)
	for i := range texts {
		texts[i] = plantedText(subSeed(seed, 30+uint64(i)), bulkTextBytes, shapeL.sigma, plantGap, dicts...)
	}
	// The pool runs over dict × text; the oracle for each pair is computed
	// on both cores, since the map-based reference automaton is slow.
	want := make([][]hit, bulkDicts*bulkTexts)
	var wg sync.WaitGroup
	for k := range dicts {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			ac := ahocorasick.New(dicts[k])
			for i, t := range texts {
				want[i*bulkDicts+k] = oracleHits(ac, t)
			}
		}(k)
	}
	wg.Wait()
	return &inputs{
		dicts: dicts,
		texts: texts,
		pool: func(d *deployment) []*request {
			pool := make([]*request, 0, len(want))
			for _, t := range texts {
				body := matchBody(t)
				for k := range dicts {
					pool = append(pool, post(d, k, "/match", "application/json", body, t, matchCheck(want[len(pool)])))
				}
			}
			return pool
		},
	}, nil
}

// pairedInputs is the inputs of a workload that sends bodies[i], which
// stands for texts[i], to one route of dictionary i, round-robin.
func pairedInputs(dicts [][][]byte, texts, bodies [][]byte, route string) *inputs {
	want := make([][]hit, len(texts))
	for i, t := range texts {
		want[i] = oracleHits(ahocorasick.New(dicts[i]), t)
	}
	return &inputs{
		dicts: dicts, texts: texts, bodies: bodies,
		pool: func(d *deployment) []*request {
			pool := make([]*request, len(texts))
			for i, t := range texts {
				pool[i] = post(d, i, route, "application/octet-stream", bodies[i], t, streamCheck(want[i]))
			}
			return pool
		},
	}
}

// sDicts draws n dictionaries of shape S; the first is the one every
// S-workload shares.
func sDicts(seed uint64, n int) [][][]byte {
	dicts := make([][][]byte, n)
	for i := range dicts {
		dicts[i] = genDict(subSeed(seed, 1+uint64(i)), shapeS)
	}
	return dicts
}

func streamInputs(seed uint64, _ string) (*inputs, error) {
	dicts := sDicts(seed, streamPairs)
	texts := make([][]byte, streamPairs)
	for i := range texts {
		texts[i] = plantedText(subSeed(seed, 40+uint64(i)), streamBytes, shapeS.sigma, plantGap, dicts[i])
	}
	return pairedInputs(dicts, texts, texts, "/match/stream"), nil
}

// czRepInputs is the opposite regime of cz_inc (ratio ≈ 0.01), one pair:
// only the layer probes use it.
func czRepInputs(seed uint64, corpusDir string) (*inputs, error) {
	return czInputs(seed, corpusDir, fmt.Sprintf("rep-n%d-b4096-m0.001-gap%d", czRepBytes, czRepPlantGap), 1,
		func(i int, dict [][]byte) []byte {
			text := textgen.New(subSeed(seed, 50+uint64(i))).Repetitive(czRepBytes, 4096, 0.001)
			plant(subSeed(seed, 55+uint64(i)), text, czRepPlantGap, dict)
			return text
		})
}

func czIncInputs(seed uint64, corpusDir string) (*inputs, error) {
	return czInputs(seed, corpusDir, fmt.Sprintf("markov-n%d-s26-c0.5-gap%d", czIncBytes, plantGap), czPairs,
		func(i int, dict [][]byte) []byte {
			text := textgen.New(subSeed(seed, 60+uint64(i))).Markov(czIncBytes, 26, 0.5)
			plant(subSeed(seed, 65+uint64(i)), text, plantGap, dict)
			return text
		})
}

// czInputs generates pairs texts with gen and compresses each into its
// LZ1R1 container, cached under the generator's parameters, the seed and
// the pair's index.
func czInputs(seed uint64, corpusDir, params string, pairs int, gen func(i int, dict [][]byte) []byte) (*inputs, error) {
	dicts := sDicts(seed, pairs)
	texts := make([][]byte, pairs)
	containers := make([][]byte, pairs)
	errs := make([]error, pairs)
	var wg sync.WaitGroup
	for half := 0; half < 2; half++ { // both cores: the suffix tree of each text dominates
		wg.Add(1)
		go func(half int) {
			defer wg.Done()
			for i := half; i < pairs; i += 2 {
				texts[i] = gen(i, dicts[i])
				containers[i], errs[i] = lzContainer(corpusDir, fmt.Sprintf("%s-seed%d-%d", params, seed, i), texts[i])
			}
		}(half)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pairedInputs(dicts, texts, containers, "/match/compressed"), nil
}

func churnInputs(seed uint64, _ string) (*inputs, error) {
	dict := genDict(subSeed(seed, 1), shapeS)
	ac := ahocorasick.New(dict)
	texts := make([][]byte, churnTexts)
	want := make([][]hit, churnTexts)
	for i := range texts {
		texts[i] = plantedText(subSeed(seed, 70+uint64(i)), churnBytes, shapeS.sigma, plantGap, dict)
		want[i] = oracleHits(ac, texts[i])
	}
	return &inputs{
		dicts: [][][]byte{dict},
		texts: texts,
		pool:  func(d *deployment) []*request { return matchPool(d, texts, want) },
	}, nil
}

// freshDict is one dictionary the benchmark registers during a run, with a
// planted text and its expected answer.
type freshDict struct {
	body []byte // POST /v1/dicts body
	text []byte
	want []hit
}

// register is the request that creates the dictionary through d's entry
// node and stores the id it was given.
func (f *freshDict) register(d *deployment, id *string) *request {
	return &request{url: d.entry.base + "/v1/dicts", ctype: "application/json", body: f.body, check: createdCheck(id)}
}

// match is the verified match of the planted text against the dictionary
// registered as id.
func (f *freshDict) match(d *deployment, id string) *request {
	return &request{url: d.entry.base + "/v1/dicts/" + id + "/match", ctype: "application/json",
		body: matchBody(f.text), text: f.text, check: matchCheck(f.want)}
}

// freshDicts generates n distinct churn-shaped dictionaries for salt.
func freshDicts(seed, salt uint64, n int) []freshDict {
	out := make([]freshDict, n)
	var wg sync.WaitGroup
	for half := 0; half < 2; half++ { // both cores: building the oracles dominates
		wg.Add(1)
		go func(half int) {
			defer wg.Done()
			for i := half; i < n; i += 2 {
				s := subSeed(seed, salt+uint64(i))
				dict := genDict(s, shapeChurn)
				text := plantedText(s, churnBytes, shapeChurn.sigma, plantGap, dict)
				out[i] = freshDict{body: dictBody(dict), text: text, want: oracleHits(ahocorasick.New(dict), text)}
			}
		}(half)
	}
	wg.Wait()
	return out
}

// run is the state of one workload run that the measure functions share.
type run struct {
	seed  uint64
	d     *deployment
	conns []*conn
	pool  []*request
	res   *result
	part  int // measured parts so far
	sent  int // pool requests handed out so far: each part continues the round-robin
	win   window
	// Server CPU of the throughput parts and the OK requests it is spread over.
	cpuS  float64
	cpuOK int
	// churn: the dictionaries its writer has yet to register, and what the
	// registrations so far took.
	fresh      []freshDict
	registerMs []float64
}

// next hands out the pool round-robin, across parts.
func (r *run) next(i int) *request { return r.pool[(r.sent+i)%len(r.pool)] }

// closedPart runs one closed loop for d over the run's connections and adds
// its completions, and the server CPU they cost, to the window.
func (r *run) closedPart(d time.Duration) tally {
	before := r.d.cpu()
	t := tallySamples(closedLoop(r.conns, d, r.next, false))
	r.cpuS += (r.d.cpu() - before).Seconds()
	r.cpuOK += t.ok()
	r.sent += t.attempted
	r.res.count(t)
	r.win.throughput(t)
	return t
}

// measureClosed is the default part: one closed loop for the whole time.
func measureClosed(r *run, part time.Duration) {
	r.win.latency(r.closedPart(part))
}

// measureBulk staggers the dictionaries before the first part. matchd checks
// a sample of the dense answers of each dictionary against the tree walk, by
// request count; under a strict round-robin the four dictionaries' sampled
// turns (≈ 0.2 s of both cores each) would fall on four consecutive requests,
// and whether a slice's edge cuts such a burst would move its rate by a
// tenth. A few extra requests per dictionary spread the turns out.
func measureBulk(r *run, part time.Duration) {
	if r.part == 0 {
		var t tally
		for k := 0; k < bulkDicts; k++ {
			for j := 0; j < k*bulkStagger; j++ {
				t.note(r.conns[0].do(r.pool[(j*bulkDicts+k)%len(r.pool)], true))
			}
		}
		r.res.count(t)
	}
	measureClosed(r, part)
}

// measureSmall splits the part: phase A is a closed loop for throughput (and
// the CPU diagnostics), phase B an open loop at the pinned rate for latency
// counted from each request's due time.
func measureSmall(r *run, part time.Duration) {
	r.closedPart(part / 2)
	schedule := poissonSchedule(subSeed(r.seed, 99+uint64(r.part)), openLoopRate, part/2)
	b := tallySamples(openLoop(r.conns, schedule, r.next))
	r.sent += b.attempted
	r.res.count(b)
	r.win.latency(b)
	r.res.diag("loadgen.late_share", b.lateShare, "ratio")
	r.res.diag("loadgen.queued_share", b.queuedShare, "ratio")
	r.res.diag("loadgen.open_loop_rate", openLoopRate, "1/s")
	r.res.Samples["open_loop"] += b.attempted
	if b.lateShare > 0.05 {
		r.res.flag("late_share %.3f > 0.05: the generator, not the server, set part of the open-loop latency", b.lateShare)
	}
}

// measureChurn runs a reader and a writer side by side, one connection
// each. The reader's closed loop gives throughput and latency; the writer
// registers a fresh dictionary, checks one match against it, and repeats,
// from part to part on the same deployment, so the registry stays full once
// it has filled.
func measureChurn(r *run, part time.Duration) {
	reader, writer := r.conns[:1], r.conns[1]
	before := r.d.cpu()
	var wg sync.WaitGroup
	var wt tally
	wg.Add(1)
	go func() {
		defer wg.Done()
		for start := time.Now(); len(r.fresh) > 0 && time.Since(start) < part; r.fresh = r.fresh[1:] {
			var id string
			t0 := time.Now()
			err := writer.do(r.fresh[0].register(r.d, &id), true)
			wt.note(err)
			if err != nil {
				continue
			}
			r.registerMs = append(r.registerMs, float64(time.Since(t0))/float64(time.Millisecond))
			wt.note(writer.do(r.fresh[0].match(r.d, id), true))
		}
	}()
	rt := tallySamples(closedLoop(reader, part, r.next, false))
	wg.Wait()
	r.cpuS += (r.d.cpu() - before).Seconds()
	r.cpuOK += rt.ok() + wt.ok()
	r.sent += rt.attempted
	if len(r.fresh) == 0 {
		r.res.flag("the churn writer ran out of fresh dictionaries before the window ended")
	}
	r.res.count(rt)
	r.res.count(wt)
	r.win.throughput(rt)
	r.win.latency(rt)
}

// corpusDirOf is where LZ1R1 containers are cached.
func corpusDirOf(outDir string) string { return filepath.Join(outDir, "corpus") }
