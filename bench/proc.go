package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles cmd/covserved into the checkout's build
// directory. It runs before any clock starts.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "covserved")
	if err := os.MkdirAll(filepath.Dir(bin), 0o777); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/covserved")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building covserved: %v\n%s", err, out)
	}
	return bin, nil
}

// children tracks every live covserved so that no exit path — a failed
// check, a deadline, a signal — leaves one behind.
var children struct {
	sync.Mutex
	live map[*proc]struct{}
}

// killAll SIGKILLs and reaps every live child.
func killAll() {
	children.Lock()
	ps := make([]*proc, 0, len(children.live))
	for p := range children.live {
		ps = append(ps, p)
	}
	children.Unlock()
	for _, p := range ps {
		p.kill()
	}
}

// proc is one running covserved.
type proc struct {
	cmd      *exec.Cmd
	log      *os.File // the server's stdout and stderr
	httpPort int
	wirePort int
	httpAddr string // host:port
	wireAddr string
	url      string // http://host:port
	waitOnce sync.Once
	// Final accounting, captured by kill just before the signal.
	lastCPU cpuTimes
	lastRSS float64
}

// freePorts asks the kernel for n distinct unused loopback ports. All n
// listeners are held open until every port is known (closing one before
// asking for the next can hand the same port out twice), then closed,
// so another process could still grab a port before covserved binds it;
// startServer retries once when that happens.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// startServer execs covserved with the shared sketch flags plus extra,
// on fresh loopback ports, and waits until it serves. Pdeathsig (the
// child dies with the harness, however the harness dies) is tied to the
// forking thread, which is why run() locks its goroutine to one.
func startServer(rc *runCtx, name string, extra ...string) (p *proc, err error) {
	for attempt := 0; attempt < 2; attempt++ {
		var ports []int
		if ports, err = freePorts(2); err != nil {
			return nil, err
		}
		if p, err = startServerOn(rc, name, ports[0], ports[1], extra...); err == nil {
			return p, nil
		}
	}
	return nil, err
}

func startServerOn(rc *runCtx, name string, httpPort, wirePort int, extra ...string) (*proc, error) {
	p := &proc{
		httpPort: httpPort,
		wirePort: wirePort,
		httpAddr: fmt.Sprintf("127.0.0.1:%d", httpPort),
		wireAddr: fmt.Sprintf("127.0.0.1:%d", wirePort),
	}
	p.url = "http://" + p.httpAddr
	args := []string{
		"-n", strconv.Itoa(numSets), "-k", strconv.Itoa(sketchK),
		"-eps", strconv.FormatFloat(sketchEps, 'g', -1, 64),
		"-seed", strconv.Itoa(sketchSeed), "-shards", strconv.Itoa(shards),
		"-addr", p.httpAddr, "-wire-addr", p.wireAddr,
	}
	args = append(args, extra...)
	logf, err := os.OpenFile(filepath.Join(rc.tmp, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return nil, err
	}
	p.log = logf
	p.cmd = exec.Command(rc.serverBin, args...)
	p.cmd.Stdout = logf
	p.cmd.Stderr = logf
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	children.Lock()
	if children.live == nil {
		children.live = make(map[*proc]struct{})
	}
	children.live[p] = struct{}{}
	children.Unlock()
	if err := p.waitReady(); err != nil {
		p.kill()
		return nil, fmt.Errorf("%s: %w\n%s", name, err, p.logTail())
	}
	return p, nil
}

// startTimeout bounds one server start, WAL replay included (about a
// second at full scale).
const startTimeout = 60 * time.Second

// waitReady polls /v1/healthz until the server answers. covserved binds
// the wire listener before the HTTP one and finishes snapshot restore
// and WAL replay before either, so one 200 means "recovered and
// serving on both planes".
func (p *proc) waitReady() error {
	deadline := time.Now().Add(startTimeout)
	for {
		resp, err := httpClient.Get(p.url + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if !processAlive(p.cmd.Process.Pid) {
			return fmt.Errorf("covserved exited during start-up")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("covserved not serving after %s: %v", startTimeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// processAlive reports whether pid is still running (a zombie — exited
// but not yet reaped — counts as gone).
func processAlive(pid int) bool {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	i := bytes.LastIndexByte(b, ')')
	return i >= 0 && i+2 < len(b) && b[i+2] != 'Z'
}

// kill records the process's final CPU and peak RSS, SIGKILLs it and
// reaps it. Safe to call more than once.
func (p *proc) kill() {
	p.waitOnce.Do(func() {
		if cpu, err := readCPU(p.cmd.Process.Pid); err == nil {
			p.lastCPU = cpu
		}
		if rss, err := readStatusMB(p.cmd.Process.Pid, "VmHWM:"); err == nil {
			p.lastRSS = rss
		}
		p.cmd.Process.Kill()
		p.cmd.Wait()
		p.log.Close()
		children.Lock()
		delete(children.live, p)
		children.Unlock()
	})
}

func (p *proc) logTail() string {
	b, err := os.ReadFile(p.log.Name())
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// cpuTimes is a process's cumulative CPU in seconds.
type cpuTimes struct{ user, sys float64 }

func (c cpuTimes) total() float64          { return c.user + c.sys }
func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.user - o.user, c.sys - o.sys} }
func (c cpuTimes) add(o cpuTimes) cpuTimes { return cpuTimes{c.user + o.user, c.sys + o.sys} }

// clockTick is USER_HZ, the unit of /proc/<pid>/stat's utime and stime.
// It is 100 on every Linux ABI Go runs on.
const clockTick = 100

// readCPU reads utime and stime (fields 14 and 15) of /proc/<pid>/stat.
func readCPU(pid int) (cpuTimes, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return cpuTimes{}, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// the closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return cpuTimes{}, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return cpuTimes{}, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return cpuTimes{}, fmt.Errorf("unparsable /proc/%d/stat", pid)
	}
	return cpuTimes{ut / clockTick, st / clockTick}, nil
}

// readStatusMB reads one kB-valued field ("VmHWM:", "VmRSS:") of
// /proc/<pid>/status, in MB.
func readStatusMB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s for pid %d", field, pid)
}

// rssSampler records, every 50 ms, the resident set summed over every
// live covserved. The mean of those samples — the time-averaged resident
// set — is the steady memory number: the peak (VmHWM) depends on where
// one garbage-collection cycle happened to fall and moves by 15 %
// between identical runs, and the median flips between the phases of a
// two-phase workload whose phases hold different amounts of memory.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			total := 0.0
			children.Lock()
			for p := range children.live {
				if mb, err := readStatusMB(p.cmd.Process.Pid, "VmRSS:"); err == nil {
					total += mb
				}
			}
			children.Unlock()
			if total > 0 {
				s.samples = append(s.samples, total)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// mean stops the sampler and returns the mean sample, in MB.
func (s *rssSampler) mean() float64 {
	close(s.stop)
	<-s.done
	total := 0.0
	for _, v := range s.samples {
		total += v
	}
	return total / float64(len(s.samples))
}

// cpu returns the process's CPU so far (its final value once killed).
func (p *proc) cpu() cpuTimes {
	if c, err := readCPU(p.cmd.Process.Pid); err == nil {
		return c
	}
	return p.lastCPU
}

// peakRSS returns the process's peak resident set so far, in MB.
func (p *proc) peakRSS() float64 {
	if r, err := readStatusMB(p.cmd.Process.Pid, "VmHWM:"); err == nil {
		return r
	}
	return p.lastRSS
}
