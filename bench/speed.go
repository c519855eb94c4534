package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The VM the benchmark runs on shares its cores with other tenants, and
// the speed of the same code drifts with what they run: on the 2-vCPU VM
// the bounds were set on, throughput as measured spread by up to a third
// between runs minutes apart, and moved from one second to the next
// within a run (README, "Host speed"). So the benchmark times its load in
// short windows, each bracketed by a probe: a fixed reference loop that
// touches nothing of the program. Every interval is converted to
// reference seconds, its length times the host's speed around it relative
// to the probe's speed on that VM when uncontended, so a run on a slowed
// host reads about what it would have read on a quiet one.
//
// The probe mirrors the two kinds of work a request does. Half of it is
// float64 matrix-vector products the shape of the encoder's feed-forward
// layer, half is 16 KiB ping-pongs over loopback TCP, which exercise the
// kernel's network path and the runtime's netpoller as the HTTP hops do.
// Neither allocates, so a probe does not depend on the program's heap. A
// probe of either kind alone over-corrected some workloads and
// under-corrected others on that VM.
const (
	window     = 500 * time.Millisecond // load between two probes
	probeBurst = 25 * time.Millisecond  // each half of one probe
	// Rounds per second over all GOMAXPROCS goroutines on the uncontended
	// 2-vCPU Intel Xeon VM, for each half of the probe.
	refMatRate  = 1.2e5
	refPingRate = 1.6e5
)

const (
	probeIn, probeOut, probeMats = 48, 96, 8
	pingBytes                    = 16 << 10
)

type prober struct {
	w     []float64   // probeMats weight matrices, read-only
	x, y  [][]float64 // per goroutine
	conns []net.Conn  // per goroutine: the client end of a loopback echo pair
	buf   [][]byte    // per goroutine
	ln    net.Listener
	echo  sync.WaitGroup
}

func newProber() (*prober, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &prober{w: make([]float64, probeIn*probeOut*probeMats), ln: ln}
	for i := range p.w {
		p.w[i] = float64(i%13) * 1e-3
	}
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		x := make([]float64, probeIn)
		for i := range x {
			x[i] = 1
		}
		p.x = append(p.x, x)
		p.y = append(p.y, make([]float64, probeOut))
		p.buf = append(p.buf, make([]byte, pingBytes))
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			p.close()
			return nil, err
		}
		p.conns = append(p.conns, c)
		s, err := ln.Accept()
		if err != nil {
			p.close()
			return nil, err
		}
		p.echo.Add(1)
		go func() {
			defer p.echo.Done()
			defer s.Close()
			// Echo until the client end closes; a failed copy ends the
			// echo the same way, and the probe reports it.
			_, _ = io.Copy(s, s)
		}()
	}
	return p, nil
}

// close shuts the echo pairs and waits for their goroutines.
func (p *prober) close() {
	for _, c := range p.conns {
		c.Close()
	}
	p.ln.Close()
	p.echo.Wait()
}

// speed runs both halves of the probe on every P and returns the geometric
// mean of their rates, each relative to its rate on the reference VM.
func (p *prober) speed() (float64, error) {
	mat, err := p.burst(func(g int) error {
		x, y := p.x[g], p.y[g]
		for m := 0; m < probeMats; m++ {
			w := p.w[m*probeIn*probeOut : (m+1)*probeIn*probeOut]
			for r := range y {
				s := 0.0
				for c, v := range w[r*probeIn : (r+1)*probeIn] {
					s += v * x[c]
				}
				y[r] = s
			}
		}
		x[0] = 1 + y[0]*1e-6
		return nil
	})
	if err != nil {
		return 0, err
	}
	ping, err := p.burst(func(g int) error {
		c, b := p.conns[g], p.buf[g]
		if _, err := c.Write(b); err != nil {
			return err
		}
		_, err := io.ReadFull(c, b)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("speed probe: %w", err)
	}
	return math.Sqrt(mat / refMatRate * ping / refPingRate), nil
}

// burst runs round on every P for probeBurst and returns rounds per second.
func (p *prober) burst(round func(g int) error) (float64, error) {
	var stop atomic.Bool
	var rounds atomic.Int64
	errs := make([]error, len(p.conns))
	var wg sync.WaitGroup
	start := time.Now()
	for g := range p.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := int64(0)
			for ; !stop.Load() && errs[g] == nil; n++ {
				errs[g] = round(g)
			}
			rounds.Add(n)
		}()
	}
	time.Sleep(probeBurst)
	stop.Store(true)
	wg.Wait()
	return float64(rounds.Load()) / time.Since(start).Seconds(), errors.Join(errs...)
}

// timedPhase drives the clients for d of load in windows, probing the
// host's speed before the first window and after each one, and records
// every window's wall time and latencies in reference time as well, and
// the process CPU time the windows took, probes left out.
func timedPhase(cls []*loadClient, d time.Duration, pr *prober, rec *recorder) (phase, error) {
	var all phase
	before, err := pr.speed()
	for t := time.Duration(0); t < d && err == nil; t += window {
		cpu := cpuTime()
		p := run(cls, window, 0, rec)
		p.cpu = time.Duration(cpuTime() - cpu)
		var after float64
		if after, err = pr.speed(); err == nil {
			p.toReference((before + after) / 2)
		}
		all.merge(p)
		before = after
	}
	return all, err
}
