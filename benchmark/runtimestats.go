package main

import rtmetrics "runtime/metrics"

// runtimeSample is a snapshot of the Go runtime's cumulative allocation and
// GC CPU counters.
type runtimeSample struct {
	allocBytes uint64
	gcCPUSec   float64
}

var runtimeSamples = []rtmetrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readRuntime() runtimeSample {
	s := append([]rtmetrics.Sample(nil), runtimeSamples...)
	rtmetrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == rtmetrics.KindUint64 {
		out.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == rtmetrics.KindFloat64 {
		out.gcCPUSec = s[1].Value.Float64()
	}
	return out
}

// runtimeMeter measures the runtime and process CPU cost of a phase.
type runtimeMeter struct {
	rt  runtimeSample
	cpu cpuTimes
}

func startRuntime() runtimeMeter { return runtimeMeter{rt: readRuntime(), cpu: processCPU()} }

// report sets the runtime per-layer metrics for the sessions the phase ran.
func (m runtimeMeter) report(out metrics, sessions int) {
	rt, cpu := readRuntime(), processCPU().sub(m.cpu)
	out.set("runtime.alloc_kb_per_session", "KB", per(float64(rt.allocBytes-m.rt.allocBytes)/1024, sessions))
	out.set("runtime.gc_cpu_ms_per_session", "ms", per((rt.gcCPUSec-m.rt.gcCPUSec)*1e3, sessions))
	out.set("runtime.sys_cpu_ms_per_session", "ms", per(ms(cpu.sys), sessions))
}
