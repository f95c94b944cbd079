package serve

import (
	"sync"
	"testing"
	"time"
)

// stalledScraper blocks every Write until release is closed, the way a
// scraper that stops reading blocks the handler's writes.
type stalledScraper struct {
	writing    chan struct{}
	release    chan struct{}
	firstWrite sync.Once
}

func (s *stalledScraper) Write(p []byte) (int, error) {
	s.firstWrite.Do(func() { close(s.writing) })
	<-s.release
	return len(p), nil
}

// TestWritePromStalledScrapeDoesNotBlockFinished: a job's completion
// (finished, which the server calls under its own lock) must not wait on
// a /metrics scrape whose client has stopped reading.
func TestWritePromStalledScrapeDoesNotBlockFinished(t *testing.T) {
	m := newMetrics()
	w := &stalledScraper{writing: make(chan struct{}), release: make(chan struct{})}
	scraped := make(chan struct{})
	go func() {
		m.WriteProm(w, 0, 1, 0, 1, time.Second)
		close(scraped)
	}()
	defer func() { close(w.release); <-scraped }()
	<-w.writing
	finished := make(chan struct{})
	go func() {
		m.finished(JobView{State: StateDone})
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("finished blocked behind a WriteProm stalled on its writer")
	}
}
