package cohesion

import (
	"fmt"
	"strings"
)

// ScalingPoint is one measurement of the scaling study: a kernel run at a
// given machine size under one memory model.
type ScalingPoint struct {
	Kernel   string
	Config   string
	Clusters int
	Cores    int
	Cycles   uint64
	Messages uint64
	// MessagesPerCore normalizes network load to machine size — the
	// paper's scalability argument is that hardware coherence's per-core
	// message cost grows with sharing degree while software coherence's
	// does not.
	MessagesPerCore float64
	ProbesSent      uint64
	Failed          string // failed(<reason>) when this point's run failed
}

// ScalingStudy runs one kernel across machine sizes under SWcc, optimistic
// HWcc, and Cohesion, quantifying the paper's central motivation (§1–2):
// hardware coherence's network and directory costs grow with core count,
// and a hybrid model recovers software coherence's scalability for the
// data that permits it. The kernel's data set scales with the machine so
// per-core work stays roughly constant (weak scaling): each point sets
// its own clusters, scale and workers, and takes the seed, verification,
// limits, parallelism, context and checkpoint from p. Like every figure,
// it degrades gracefully: a failed point renders as failed(<reason>).
func ScalingStudy(p ExpParams, kernel string, clusterCounts []int) ([]ScalingPoint, error) {
	if len(clusterCounts) == 0 {
		clusterCounts = []int{2, 4, 8, 16}
	}
	var jobs []runJob
	var points []ScalingPoint
	for _, clusters := range clusterCounts {
		pc := p
		pc.Clusters, pc.Scale, pc.Workers = clusters, clusters, 2*clusters
		for _, c := range []namedConfig{
			{"SWcc", pc.swccCfg()},
			{"HWcc", pc.hwccIdealCfg()},
			{"Cohesion", pc.cohesionRealCfg()},
		} {
			jobs = append(jobs, runJob{name: fmt.Sprintf("%s@%d", c.name, clusters), rc: pc.runConfig(kernel, c.cfg)})
			points = append(points, ScalingPoint{Kernel: kernel, Config: c.name, Clusters: clusters, Cores: c.cfg.Cores()})
		}
	}
	cells, err := p.runAll(jobs)
	for i, cell := range cells {
		pt := &points[i]
		pt.Failed = cell.failed
		if res := cell.res; res != nil {
			pt.Cycles = res.Cycles()
			pt.Messages = res.TotalMessages()
			pt.MessagesPerCore = float64(res.TotalMessages()) / float64(pt.Cores)
			pt.ProbesSent = res.Stats.ProbesSent
		}
	}
	return points, err
}

// ScalingCSV renders scaling-study points.
func ScalingCSV(rows []ScalingPoint) string {
	var b strings.Builder
	b.WriteString("kernel,config,clusters,cores,cycles,messages,messages_per_core,probes,failed\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%s,%d,%d,%d,%d,%.2f,%d,%s\n",
			r.Kernel, r.Config, r.Clusters, r.Cores, r.Cycles, r.Messages, r.MessagesPerCore, r.ProbesSent, csvFailure(r.Failed))
	}
	return b.String()
}
