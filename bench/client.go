package main

import (
	"bytes"
	"errors"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// loadClient is one closed-loop client: a log shipper that sends its next
// batch only once the previous one is acknowledged, over one keep-alive
// connection.
type loadClient struct {
	idx  int
	cs   *clientStream
	url  string
	hc   *http.Client
	resp bytes.Buffer
}

func newLoadClient(idx int, cs *clientStream, url string) *loadClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &loadClient{idx: idx, cs: cs, url: url + "/score", hc: &http.Client{Transport: tr}}
}

func (c *loadClient) close() { c.hc.CloseIdleConnections() }

// verdictPrefix starts every verdict line; an error record starts with
// {"error" instead.
var verdictPrefix = []byte(`{"user"`)

// exchange is one request's outcome.
type exchange struct {
	ok       bool
	lat      time.Duration
	in, out  int // request and response body bytes
	verdicts int
}

// send POSTs the client's next body and checks the response cheaply:
// status 200, one verdict line per event, no error record. With a
// recorder it also sends the request id and records the client span.
func (c *loadClient) send(rec *recorder) exchange {
	body := c.cs.next()
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return exchange{}
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	var sp span
	if rec != nil {
		sp = span{Name: "client", ID: rec.nextID.Add(1), Rep: -1, Client: c.idx}
		sp.Req = sp.ID
		req.Header.Set(reqHeader, strconv.FormatInt(sp.Req, 10))
		req.Header.Set(parentHeader, strconv.FormatInt(sp.ID, 10))
		sp.Start = rec.now()
	}
	c.resp.Reset()
	start := time.Now()
	ex := exchange{in: len(body)}
	resp, err := c.hc.Do(req)
	if err == nil {
		_, err = c.resp.ReadFrom(resp.Body)
		resp.Body.Close()
		ex.ok = err == nil && resp.StatusCode == http.StatusOK
	}
	ex.lat = time.Since(start)
	if rec != nil {
		sp.End = rec.now()
		rec.add(sp)
	}
	ex.out = c.resp.Len()
	if ex.ok {
		ex.verdicts, ex.ok = checkVerdicts(c.resp.Bytes(), chunk)
	}
	return ex
}

func checkVerdicts(b []byte, want int) (int, bool) {
	n := 0
	for len(b) > 0 {
		i := bytes.IndexByte(b, '\n')
		if i < 0 || !bytes.HasPrefix(b[:i], verdictPrefix) {
			return n, false
		}
		n++
		b = b[i+1:]
	}
	return n, n == want
}

// phase is what the clients saw over one timed run.
type phase struct {
	requests, failed int
	verdicts         int64
	in, out          int64
	lat              []time.Duration
	wall             time.Duration
	// The same latencies and wall time in reference time, for phases timed
	// against the speed probe (see speed.go).
	refLat  []time.Duration
	refWall time.Duration
	cpu     time.Duration // process CPU time, where measured
}

func (p *phase) add(ex exchange) {
	p.requests++
	if !ex.ok {
		p.failed++
		return
	}
	p.verdicts += int64(ex.verdicts)
	p.in += int64(ex.in)
	p.out += int64(ex.out)
	p.lat = append(p.lat, ex.lat)
}

func (p *phase) merge(o phase) {
	p.requests += o.requests
	p.failed += o.failed
	p.verdicts += o.verdicts
	p.in += o.in
	p.out += o.out
	p.lat = append(p.lat, o.lat...)
	p.wall += o.wall
	p.refLat = append(p.refLat, o.refLat...)
	p.refWall += o.refWall
	p.cpu += o.cpu
}

// toReference records p's times in reference time, for a phase over which
// the host ran at speed s of the reference.
func (p *phase) toReference(s float64) {
	p.refWall = time.Duration(float64(p.wall) * s)
	p.refLat = make([]time.Duration, len(p.lat))
	for i, l := range p.lat {
		p.refLat[i] = time.Duration(float64(l) * s)
	}
}

func (p *phase) linesPerSec() float64 { return float64(p.verdicts) / p.wall.Seconds() }

// run drives every client in a closed loop for d, or for n requests each
// when d is 0; a client finishes its request in flight at the deadline,
// and wall time runs until the last one has.
func run(cls []*loadClient, d time.Duration, n int, rec *recorder) phase {
	start := time.Now()
	deadline := start.Add(d)
	more := func(k int) bool { return k < n || (d > 0 && time.Now().Before(deadline)) }
	per := make([]phase, len(cls))
	var wg sync.WaitGroup
	for i, c := range cls {
		wg.Add(1)
		go func(p *phase, c *loadClient) {
			defer wg.Done()
			for k := 0; more(k); k++ {
				p.add(c.send(rec))
			}
		}(&per[i], c)
	}
	wg.Wait()
	var all phase
	for _, p := range per {
		all.merge(p)
	}
	all.wall = time.Since(start)
	return all
}

func vmRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmRSS in /proc/self/status")
}

// quantile is the linearly interpolated q-quantile of xs, which it sorts.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}
