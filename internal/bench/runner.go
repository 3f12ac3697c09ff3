package bench

import (
	"time"

	"saber/internal/engine"
	"saber/internal/gpu"
	"saber/internal/model"
	"saber/internal/obs"
	"saber/internal/query"
	"saber/internal/workload"
)

// Options tunes experiment volume and fidelity.
type Options struct {
	// Scale is the model time scale. Larger is slower and more faithful
	// on weak hosts: the calibrated model must dominate real compute for
	// the paper's performance surface to emerge. Default 20 (reported
	// throughputs are 1/20 of the paper's magnitudes; all ratios hold).
	Scale float64
	// MB is the data volume per measurement point (default 16).
	MB int
	// Workers is the CPU worker count (default 15, the paper's).
	Workers int
	// Metrics, when set, is shared by every engine the experiments build,
	// so a live admin endpoint (saber-bench -metrics-addr) sees the run in
	// progress. Counters accumulate across sequential runs; gauges and
	// mirror functions rebind to the most recent engine. Nil keeps each
	// run's registry private.
	Metrics *obs.Registry
}

// WithDefaults fills in defaults.
func (o Options) WithDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 20
	}
	if o.MB <= 0 {
		o.MB = 16
	}
	if o.Workers <= 0 {
		o.Workers = 15
	}
	return o
}

func (o Options) params() model.Params { return model.Default().Scaled(o.Scale) }

// mode selects the processors for a run.
type mode string

const (
	modeHybrid mode = "hybrid"
	modeCPU    mode = "cpu"
	modeGPU    mode = "gpu"
)

// runSpec describes one measured engine run.
type runSpec struct {
	opts    Options
	queries []*query.Query
	mode    mode
	// cfg is the engine configuration. run sets GPU, CPUWorkers (by mode),
	// Model and Metrics, and defaults SwitchThreshold to 40.
	cfg engine.Config
	// streams[q][side] supplies the pre-generated input per query input.
	streams [][2][]byte
	// chunk is the Insert granularity in bytes (default cfg.TaskSize).
	chunk int
	// sample, when set, is called every sampleEvery during the run with
	// the elapsed time (Fig. 16's timeline).
	sample      func(elapsed time.Duration, handles []*engine.Handle)
	sampleEvery time.Duration
	// sequential feeds each query's stream to completion before the
	// next query's (the paper's Fig. 15 workloads run "in sequence").
	sequential bool
}

// runResult is one run's measurements.
type runResult struct {
	GBps     float64
	Latency  time.Duration
	GPUShare float64
	Stats    []engine.Stats
}

// Paper-equivalent units: with model padding dominating wall time,
// measured throughput scales as 1/TimeScale, so measured × Scale is the
// scale-invariant, paper-comparable magnitude (and latency ÷ Scale).
func (r runResult) paperGBps(o Options) float64 { return r.GBps * o.Scale }
func (r runResult) paperLatencyMS(o Options) float64 {
	return float64(r.Latency.Microseconds()) / 1000 / o.Scale
}

// run executes the spec: builds an engine, feeds every query its stream
// (interleaved across queries), drains, and measures goodput as inserted
// bytes over wall time.
func run(spec runSpec) runResult {
	o := spec.opts
	cfg := spec.cfg
	if spec.mode != modeCPU {
		cfg.GPU = gpu.Open(gpu.Config{Model: o.params()})
		defer cfg.GPU.Close()
	}
	cfg.CPUWorkers = o.Workers
	if spec.mode == modeGPU {
		cfg.CPUWorkers = -1
	}
	cfg.Model = o.params()
	cfg.Metrics = o.Metrics
	if cfg.SwitchThreshold == 0 {
		// At benchmark volumes (tens to hundreds of tasks per run) the
		// engine's default threshold forces exploration so often that the
		// GPGPU worker stalls waiting for busy CPU workers to reset the
		// streak; 40 probe-lengths keep exploration alive at ≤ ~2% of
		// the preferred processor's work.
		cfg.SwitchThreshold = 40
	}
	eng := engine.New(cfg)
	handles := make([]*engine.Handle, len(spec.queries))
	for i, q := range spec.queries {
		h, err := eng.Register(q)
		if err != nil {
			panic(err)
		}
		handles[i] = h
	}
	if err := eng.Start(); err != nil {
		panic(err)
	}

	chunk := spec.chunk
	if chunk <= 0 {
		chunk = cfg.TaskSize
	}
	if chunk <= 0 {
		chunk = 1 << 20
	}

	stop := make(chan struct{})
	if spec.sample != nil {
		go func() {
			t0 := time.Now()
			tick := time.NewTicker(spec.sampleEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					spec.sample(time.Since(t0), handles)
				}
			}
		}()
	}

	start := time.Now()
	total := int64(0)
	// Interleave chunk-sized inserts across queries and sides so
	// multi-query and join workloads progress together — or, with
	// sequential set, feed one query at a time.
	offsets := make([][2]int, len(spec.streams))
	feedOne := func(qi int) bool {
		progressed := false
		for side := 0; side < 2; side++ {
			data := spec.streams[qi][side]
			off := offsets[qi][side]
			if off >= len(data) {
				continue
			}
			tsz := spec.queries[qi].Inputs[side].Schema.TupleSize()
			c := chunk - chunk%tsz
			if c < tsz {
				c = tsz
			}
			end := off + c
			if end > len(data) {
				end = len(data)
			}
			end -= (end - off) % tsz
			handles[qi].InsertInto(side, data[off:end])
			offsets[qi][side] = end
			total += int64(end - off)
			progressed = true
		}
		return progressed
	}
	if spec.sequential {
		for qi := range spec.streams {
			for feedOne(qi) {
			}
		}
	}
	for progressed := true; progressed; {
		progressed = false
		for qi := range spec.streams {
			progressed = feedOne(qi) || progressed
		}
	}
	eng.Drain()
	elapsed := time.Since(start)
	close(stop)
	eng.Close()

	res := runResult{GBps: float64(total) / elapsed.Seconds() / 1e9}
	var latSum time.Duration
	var gpuT, allT int64
	for _, h := range handles {
		st := h.Stats()
		res.Stats = append(res.Stats, st)
		latSum += st.AvgLatency
		gpuT += st.TasksGPU
		allT += st.TasksGPU + st.TasksCPU
	}
	if len(handles) > 0 {
		res.Latency = latSum / time.Duration(len(handles))
	}
	if allT > 0 {
		res.GPUShare = float64(gpuT) / float64(allT)
	}
	return res
}

// synStream pre-generates n bytes of synthetic tuples (32 B each).
func synStream(seed int64, groups int32, bytes int) []byte {
	g := workload.NewSynGen(seed)
	g.Groups = groups
	return g.Next(nil, bytes/32)
}
