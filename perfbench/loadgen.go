package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// query is one looking-glass request of the open-loop schedule.
type query struct {
	cold    bool
	latency time.Duration // from the scheduled send time to the decoded body
	lag     time.Duration // how late the generator sent it
	err     error         // transport error, non-200 status or a body that is not JSON
}

// loadGen is an open-loop client: query i is due at start + i/queryRate
// whether or not earlier queries have been answered, over at most conns
// connections (requests beyond that wait for one, and the wait counts
// in their latency).
type loadGen struct {
	base      string
	client    *http.Client
	transport *http.Transport
	stop      chan struct{}
	sched     sync.WaitGroup // the scheduling goroutine
	inflight  sync.WaitGroup // one per sent query

	mu      sync.Mutex
	results []query
}

func startLoad(addr string, conns int) *loadGen {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	lg := &loadGen{
		base:      "http://" + addr + "/api/",
		client:    &http.Client{Transport: tr, Timeout: 30 * time.Second},
		transport: tr,
		stop:      make(chan struct{}),
	}
	lg.sched.Add(1)
	go lg.schedule()
	return lg
}

func (lg *loadGen) schedule() {
	defer lg.sched.Done()
	start := time.Now()
	interval := time.Second / queryRate
	timer := time.NewTimer(0)
	defer timer.Stop()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		timer.Reset(time.Until(due))
		select {
		case <-lg.stop:
			return
		case <-timer.C:
		}
		lg.inflight.Add(1)
		go lg.send(i, due)
	}
}

func (lg *loadGen) send(i int, due time.Time) {
	defer lg.inflight.Done()
	url := lg.base + queryMix[i%len(queryMix)]
	cold := i%coldEvery == coldEvery/2
	if cold {
		url += "?maxAge=0"
	}
	q := query{cold: cold, lag: time.Since(due)}
	q.err = get(lg.client, url)
	q.latency = time.Since(due)
	lg.mu.Lock()
	lg.results = append(lg.results, q)
	lg.mu.Unlock()
}

// get fetches url and requires a 200 whose body is valid JSON (checked
// without decoding it, to keep the client's own work small).
func get(c *http.Client, url string) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	if !json.Valid(body) {
		return fmt.Errorf("%s: body is not JSON", url)
	}
	return nil
}

// finish stops scheduling, waits for every sent query to complete and
// returns them all.
func (lg *loadGen) finish() []query {
	close(lg.stop)
	lg.sched.Wait()
	lg.inflight.Wait()
	lg.transport.CloseIdleConnections()
	return lg.results
}

// serveStats summarizes a run's queries: latency percentiles over all of
// them and over the cold subset, the error share and the generator lag.
func serveStats(qs []query) map[string]metric {
	var all, cold, cached, lag []float64
	errs := 0
	for _, q := range qs {
		ms := float64(q.latency) / float64(time.Millisecond)
		all = append(all, ms)
		if q.cold {
			cold = append(cold, ms)
		} else {
			cached = append(cached, ms)
		}
		lag = append(lag, float64(q.lag)/float64(time.Millisecond))
		if q.err != nil {
			errs++
		}
	}
	errRatio := 0.0
	if len(qs) > 0 {
		errRatio = float64(errs) / float64(len(qs))
	}
	return map[string]metric{
		"serve.queries":      {float64(len(qs)), "count"},
		"serve.cold":         {float64(len(cold)), "count"},
		"serve.p50_ms":       {median(all), "ms"},
		"serve.p99_ms":       {quantile(all, 0.99), "ms"},
		"serve.cold_p90_ms":  {quantile(cold, 0.90), "ms"},
		"serve.cold_ms":      {median(cold), "ms"},
		"serve.cached_us":    {median(cached) * 1000, "us"},
		"serve.error_ratio":  {errRatio, "ratio"},
		"loadgen.lag_p99_ms": {quantile(lag, 0.99), "ms"},
	}
}
