package main

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// splitmix is a tiny seeded generator (splitmix64). Request i of a plan
// is a pure function of (seed, i), so the plan does not depend on which
// connection sends what, and making a request allocates no rand.Source.
type splitmix struct{ s uint64 }

func newSplitmix(seed int64, i int) *splitmix {
	return &splitmix{s: uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(i)*0xBF58476D1CE4E5B9}
}

func (r *splitmix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float64 is uniform in [0, 1).
func (r *splitmix) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// poissonDue returns the send offsets of a Poisson process at rate per
// second over [0, horizon).
func poissonDue(seed int64, rate float64, horizon time.Duration) []time.Duration {
	rng := newSplitmix(seed, -1)
	var due []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-rng.float64()) / rate
		d := time.Duration(t * float64(time.Second))
		if d >= horizon {
			return due
		}
		due = append(due, d)
	}
}

// Outcome classes of one request, as the load generator sees it.
type reqClass int

const (
	classOK        reqClass = iota // 200 with a well-formed body
	classShed                      // 429
	classServerErr                 // 5xx other than 504
	classTimeout                   // 504, or the client gave up
	classTransport                 // no HTTP response
	classBad                       // 200 whose body fails the checks, or another status
)

// classify maps a response status and transport error to its class.
func classify(status int, err error) reqClass {
	var ne net.Error
	switch {
	case err != nil && errors.As(err, &ne) && ne.Timeout():
		return classTimeout
	case err != nil:
		return classTransport
	case status == http.StatusOK:
		return classOK
	case status == http.StatusTooManyRequests:
		return classShed
	case status == http.StatusGatewayTimeout:
		return classTimeout
	case status >= 500:
		return classServerErr
	}
	return classBad
}

// tally accumulates request outcomes across the generator's connections.
type tally struct {
	limit time.Duration // latency limit: slower answers count as misses

	mu        sync.Mutex
	attempted int
	byClass   [classBad + 1]int
	overLimit int // classOK answers slower than limit
	latencies []time.Duration
	late      []time.Duration
}

// note records one request. latency counts only for classOK.
func (t *tally) note(c reqClass, latency, late time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.byClass[c]++
	t.late = append(t.late, late)
	if c == classOK {
		t.latencies = append(t.latencies, latency)
		if latency > t.limit {
			t.overLimit++
		}
	}
}

// served is the number of good 200 answers.
func (t *tally) served() int { return t.byClass[classOK] }

// failed is the number of requests without a good 200 answer.
func (t *tally) failed() int { return t.attempted - t.byClass[classOK] }

// missFrac is the share of attempted requests that failed, were refused
// (429, 5xx, timeout, transport error) or exceeded the latency limit.
func (t *tally) missFrac() float64 {
	if t.attempted == 0 {
		return 1
	}
	return float64(t.failed()+t.overLimit) / float64(t.attempted)
}

// loadSpec is what a generator run sends.
type loadSpec struct {
	url   string
	conns int
	// body returns request i's body.
	body func(i int) []byte
	// check validates request i's 200 body; false counts it as classBad.
	check func(i int, body []byte) bool
	// due, when non-nil, is the open-loop schedule: request i is due at
	// start+due[i]. Nil means closed loop until stop elapses.
	due  []time.Duration
	stop time.Duration
	// record, when non-nil, is told about every request (for spans).
	record func(i int, start, end time.Time)
}

// answer is one request's outcome on its way from a connection to the
// checker.
type answer struct {
	i             int
	class         reqClass
	latency, late time.Duration
	body          []byte
}

// drive runs the generator over spec.conns connections, each with its
// own client, and returns when every request has been answered and
// checked. Responses are checked off the connections, by one goroutine,
// so checking never delays the next send.
func drive(spec loadSpec, t *tally) time.Duration {
	// The buffer lets the checker fall a second or so behind at the
	// open-loop rate without stalling a connection.
	answers := make(chan answer, 1024)
	checked := make(chan struct{})
	go func() {
		defer close(checked)
		for a := range answers {
			if a.class == classOK && !spec.check(a.i, a.body) {
				a.class = classBad
			}
			t.note(a.class, a.latency, a.late)
		}
	}()

	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < spec.conns; c++ {
		tp := &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}
		client := &http.Client{Transport: tp, Timeout: 10 * time.Second}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tp.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				var dueAt time.Time
				if spec.due != nil {
					if i >= len(spec.due) {
						return
					}
					dueAt = start.Add(spec.due[i])
				} else if time.Since(start) >= spec.stop {
					return
				}
				body := spec.body(i)
				if spec.due != nil {
					time.Sleep(time.Until(dueAt))
				}
				sent := time.Now()
				if spec.due == nil {
					dueAt = sent
				}
				status, resp, err := post(client, spec.url, body)
				end := time.Now()
				if spec.record != nil {
					spec.record(i, dueAt, end)
				}
				answers <- answer{i: i, class: classify(status, err),
					latency: end.Sub(dueAt), late: sent.Sub(dueAt), body: resp}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	close(answers)
	<-checked
	return wall
}

func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}
