package serve

import (
	"fmt"
	"os"
	"slices"
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
// without a trace. A record with no .tmp beside it, the usual case, is
// read from its main file alone.
func loadAllRecords(stateDir string) ([]*Job, error) {
	entries, err := os.ReadDir(jobsDir(stateDir))
	if err != nil {
		return nil, fmt.Errorf("serve: scanning %s: %w", jobsDir(stateDir), err)
	}
	type file struct {
		id  string
		tmp bool
	}
	var files []file
	for _, e := range entries {
		if id, ok := strings.CutSuffix(e.Name(), ".job"); ok {
			files = append(files, file{id, false})
		} else if id, ok := strings.CutSuffix(e.Name(), ".job.tmp"); ok {
			// A crash before the first rename leaves only the .tmp.
			files = append(files, file{id, true})
		}
	}
	slices.SortFunc(files, func(a, b file) int { return strings.Compare(a.id, b.id) })
	recs := make([]*Job, 0, len(files))
	for i := 0; i < len(files); i++ {
		id, tmp := files[i].id, files[i].tmp
		for ; i+1 < len(files) && files[i+1].id == id; i++ {
			tmp = tmp || files[i+1].tmp
		}
		j := new(Job)
		path := recordPath(stateDir, id)
		if tmp {
			_, _, err = snapshot.LoadRecover(path, snapshot.KindJob, j)
		} else {
			_, err = snapshot.Load(path, snapshot.KindJob, j)
		}
		if err != nil {
			return nil, fmt.Errorf("serve: recovering job %s: %w", id, err)
		}
		recs = append(recs, j)
	}
	return recs, nil
}
