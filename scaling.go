package cohesion

import (
	"fmt"
	"strings"

	"cohesion/internal/pool"
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
}

// ScalingStudy runs one kernel across machine sizes under SWcc, optimistic
// HWcc, and Cohesion, quantifying the paper's central motivation (§1–2):
// hardware coherence's network and directory costs grow with core count,
// and a hybrid model recovers software coherence's scalability for the
// data that permits it. The kernel's data set scales with the machine so
// per-core work stays roughly constant (weak scaling).
//
// The points run concurrently on parallel worker goroutines (0 = one per
// CPU, 1 = serial); results are slotted by point index, so the returned
// rows are identical at any worker count.
func ScalingStudy(kernel string, clusterCounts []int, seed int64, verify bool, parallel int) ([]ScalingPoint, error) {
	if len(clusterCounts) == 0 {
		clusterCounts = []int{2, 4, 8, 16}
	}
	type job struct {
		name     string
		clusters int
		cfg      MachineConfig
	}
	var jobs []job
	for _, clusters := range clusterCounts {
		base := ExpParams{Clusters: clusters}.expMachine()
		for _, pt := range []struct {
			name string
			cfg  MachineConfig
		}{
			{"SWcc", base.WithMode(SWcc)},
			{"HWcc", base.WithMode(HWcc).WithDirectory(DirInfinite, 0, 0)},
			{"Cohesion", base.WithMode(Cohesion)},
		} {
			jobs = append(jobs, job{name: pt.name, clusters: clusters, cfg: pt.cfg})
		}
	}
	points, errs := pool.MapCatch(len(jobs), parallel, func(i int) (ScalingPoint, error) {
		j := jobs[i]
		res, err := Run(RunConfig{
			Machine: j.cfg,
			Kernel:  kernel,
			Scale:   j.clusters, // weak scaling: data grows with machine
			Seed:    seed,
			Workers: 2 * j.clusters,
			Verify:  verify,
		})
		if err != nil {
			return ScalingPoint{}, fmt.Errorf("scaling %s/%s@%d: %w", kernel, j.name, j.clusters, err)
		}
		cores := j.cfg.Cores()
		return ScalingPoint{
			Kernel:          kernel,
			Config:          j.name,
			Clusters:        j.clusters,
			Cores:           cores,
			Cycles:          res.Cycles(),
			Messages:        res.TotalMessages(),
			MessagesPerCore: float64(res.TotalMessages()) / float64(cores),
			ProbesSent:      res.Stats.ProbesSent,
		}, nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return points, nil
}

// ScalingCSV renders scaling-study points.
func ScalingCSV(rows []ScalingPoint) string {
	var b strings.Builder
	b.WriteString("kernel,config,clusters,cores,cycles,messages,messages_per_core,probes\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%s,%d,%d,%d,%d,%.2f,%d\n",
			r.Kernel, r.Config, r.Clusters, r.Cores, r.Cycles, r.Messages, r.MessagesPerCore, r.ProbesSent)
	}
	return b.String()
}
