package serve

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"cohesion/internal/snapshot"
)

// saveRecord atomically persists one job record.
func saveRecord(stateDir string, rec Job) error {
	return snapshot.WriteAtomic(recordPath(stateDir, rec.ID), snapshot.KindJob, rec.Revision, &rec)
}

// removeRecord deletes a job record (used only for jobs that were never
// admitted, e.g. a 429 after the speculative persist).
func removeRecord(stateDir, id string) error {
	path := recordPath(stateDir, id)
	err := os.Remove(path)
	if rerr := os.Remove(snapshot.TmpPath(path)); err == nil {
		err = rerr
	}
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	return err
}

// removeCheckpoint deletes a job's run checkpoint pair, ignoring
// missing files.
func removeCheckpoint(stateDir, id string) {
	path := ckptPath(stateDir, id)
	_ = os.Remove(path)
	_ = os.Remove(snapshot.TmpPath(path))
}

// loadAllRecords scans the jobs directory, recovering each record from
// its newest valid file (main or .tmp). A record that is torn in both
// places is reported, not silently dropped: job history must not vanish
// without a trace.
func loadAllRecords(stateDir string) ([]*Job, error) {
	entries, err := os.ReadDir(jobsDir(stateDir))
	if err != nil {
		return nil, fmt.Errorf("serve: scanning %s: %w", jobsDir(stateDir), err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".job") {
			names = append(names, strings.TrimSuffix(name, ".job"))
		} else if strings.HasSuffix(name, ".job.tmp") {
			// A crash before the first rename leaves only the .tmp.
			names = append(names, strings.TrimSuffix(name, ".job.tmp"))
		}
	}
	sort.Strings(names)
	var recs []*Job
	seen := map[string]bool{}
	for _, id := range names {
		if seen[id] {
			continue
		}
		seen[id] = true
		j := new(Job)
		if _, _, err := snapshot.LoadRecover(recordPath(stateDir, id), snapshot.KindJob, j); err != nil {
			return nil, fmt.Errorf("serve: recovering job %s: %w", id, err)
		}
		recs = append(recs, j)
	}
	return recs, nil
}
