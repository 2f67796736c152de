package main

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		status int
		err    error
		want   reqClass
	}{
		{200, nil, classOK},
		{429, nil, classShed},
		{500, nil, classServerErr},
		{502, nil, classServerErr},
		{503, nil, classServerErr},
		{504, nil, classTimeout},
		{0, timeoutErr{}, classTimeout},
		{0, errors.New("connection reset by peer"), classTransport},
		{400, nil, classBad},
	} {
		if got := classify(tc.status, tc.err); got != tc.want {
			t.Errorf("classify(%d, %v) = %d, want %d", tc.status, tc.err, got, tc.want)
		}
	}
}

// Every way a request can miss is counted against the attempted total:
// 429, 5xx, 504, a transport failure, a malformed 200 and a 200 over
// the latency limit.
func TestMissFracAccounting(t *testing.T) {
	const limit = 20 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		i, _ := strconv.Atoi(string(b))
		switch i {
		case 0:
			io.WriteString(w, "good")
		case 1:
			time.Sleep(3 * limit)
			io.WriteString(w, "good")
		case 2:
			w.WriteHeader(http.StatusTooManyRequests)
		case 3:
			w.WriteHeader(http.StatusInternalServerError)
		case 4:
			w.WriteHeader(http.StatusGatewayTimeout)
		case 5:
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		case 6:
			io.WriteString(w, "garbled")
		}
	}))
	defer srv.Close()

	tl := &tally{limit: limit}
	drive(loadSpec{
		url:   srv.URL,
		conns: 2,
		body:  func(i int) []byte { return []byte(strconv.Itoa(i)) },
		check: func(i int, b []byte) bool { return string(b) == "good" },
		due:   make([]time.Duration, 7),
	}, tl)

	if tl.attempted != 7 {
		t.Fatalf("attempted %d, want 7", tl.attempted)
	}
	want := map[reqClass]int{classOK: 2, classShed: 1, classServerErr: 1, classTimeout: 1, classTransport: 1, classBad: 1}
	for c, n := range want {
		if tl.byClass[c] != n {
			t.Errorf("class %d: %d requests, want %d", c, tl.byClass[c], n)
		}
	}
	if tl.overLimit != 1 {
		t.Errorf("over limit: %d, want 1", tl.overLimit)
	}
	if tl.served() != 2 || tl.failed() != 5 {
		t.Errorf("served %d failed %d, want 2 and 5", tl.served(), tl.failed())
	}
	if got, want := tl.missFrac(), 6.0/7; got != want {
		t.Errorf("miss_frac %v, want %v", got, want)
	}
	if len(tl.latencies) != 2 {
		t.Errorf("%d latency samples, want one per good 200", len(tl.latencies))
	}
}

// The open-loop generator sends on its absolute schedule and times each
// request from its due time, so a stalled connection makes the requests
// queued behind it late.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 50 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		if string(b) == "0" {
			time.Sleep(stall)
		}
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	tl := &tally{limit: time.Second}
	start := time.Now()
	drive(loadSpec{
		url:   srv.URL,
		conns: 1,
		body:  func(i int) []byte { return []byte(strconv.Itoa(i)) },
		check: func(int, []byte) bool { return true },
		// Request 1 is due 10 ms in, while request 0 still holds the
		// only connection.
		due: []time.Duration{0, 10 * time.Millisecond, 100 * time.Millisecond},
	}, tl)
	if el := time.Since(start); el < 100*time.Millisecond {
		t.Fatalf("finished after %v, before the last request was due", el)
	}
	if tl.served() != 3 {
		t.Fatalf("served %d, want 3", tl.served())
	}
	var late time.Duration
	for _, l := range tl.late {
		if l > late {
			late = l
		}
	}
	if late < stall-10*time.Millisecond-5*time.Millisecond {
		t.Errorf("max lateness %v, want about %v (request 1 waited behind request 0)", late, stall-10*time.Millisecond)
	}
	for _, lat := range tl.latencies {
		if lat < 0 {
			t.Errorf("negative latency %v", lat)
		}
	}
}

func TestPoissonDueDeterministic(t *testing.T) {
	a := poissonDue(7, 600, 2*time.Second)
	b := poissonDue(7, 600, 2*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed, %d vs %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}
	if n := len(a); n < 1000 || n > 1400 {
		t.Errorf("%d arrivals in 2 s at 600/s", n)
	}
	if c := poissonDue(8, 600, 2*time.Second); len(c) == len(a) && c[0] == a[0] {
		t.Errorf("different seeds gave the same schedule")
	}
}
