package main

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// hostStamp records what a result depends on besides the code: the host's
// parallelism, the Go toolchain, the farm width, the seed, and the
// filesystem under the store, whose fsync cost shapes store writes.
type hostStamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Jobs       int    `json:"jobs"`
	StoreFS    string `json:"store_fs"`
	// StealFrac is the share of the host's CPU time stolen by the
	// hypervisor while the run measured (-1 where unknown).
	StealFrac float64 `json:"cpu_steal_frac"`
}

// stealMeter measures the CPU steal share over an interval.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := cpuTicks()
	return stealMeter{s, t, ok}
}

func (m stealMeter) frac() float64 {
	s, t, ok := cpuTicks()
	if !m.ok || !ok || t <= m.total {
		return -1
	}
	return float64(s-m.steal) / float64(t-m.total)
}

func stamp(w workload, seed int64, trace bool, storeDir string, steal float64) hostStamp {
	return hostStamp{
		Workload: w.name, Seed: seed, Trace: trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Jobs: jobs, StoreFS: fsType(storeDir), StealFrac: steal,
	}
}

// heapPeak samples the Go heap in use (live and not yet swept objects plus
// unused space in in-use spans, as MemStats.HeapInuse) until stopped, and
// keeps the highest reading.
type heapPeak struct {
	stop chan struct{}
	done chan uint64
}

func startHeapPeak(every time.Duration) *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan uint64, 1)}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	go func() {
		var peak uint64
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			peak = max(peak, samples[0].Value.Uint64()+samples[1].Value.Uint64())
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in bytes; it returns once the
// sampler has exited.
func (h *heapPeak) Stop() uint64 {
	close(h.stop)
	return <-h.done
}
