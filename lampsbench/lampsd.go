package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// drainTimeout bounds how long a SIGINT drain may take before the benchmark
// kills lampsd and fails the run.
const drainTimeout = 20 * time.Second

// lampsd is one running lampsd process.
type lampsd struct {
	cmd  *exec.Cmd
	addr string // host:port it listens on
	base string // http://addr

	mu     sync.Mutex
	log    bytes.Buffer  // what it wrote to stderr, minus per-request lines
	exited chan struct{} // closed once the process has been waited for
	err    error         // exit status, valid after exited is closed
}

// startLampsd execs bin with args plus -addr on a free loopback port and
// returns once /healthz answers 200, with the time from exec to that first
// 200. The process is stopped again on any error.
func startLampsd(ctx context.Context, client *http.Client, bin string, args ...string) (*lampsd, time.Duration, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// If the benchmark itself dies (a crash or an outside kill), the kernel
	// kills lampsd too, so no server outlives the run that started it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	d := &lampsd{cmd: cmd, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting lampsd: %w", err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			line := sc.Bytes()
			if bytes.Contains(line, []byte(`"msg":"request"`)) {
				continue // one per request: only start-up and drain lines matter
			}
			d.mu.Lock()
			d.log.Write(line)
			d.log.WriteByte('\n')
			d.mu.Unlock()
			if !sent {
				if a := listeningAddr(line); a != "" {
					addrc <- a
					sent = true
				}
			}
		}
		// The pipe is drained before Wait, as exec requires.
		d.err = cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-addrc:
	case <-d.exited:
		return nil, 0, fmt.Errorf("lampsd exited before listening: %v\n%s", d.err, d.logText())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, 0, fmt.Errorf("lampsd did not report a listening address")
	case <-ctx.Done():
		d.kill()
		return nil, 0, ctx.Err()
	}
	d.base = "http://" + d.addr
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("lampsd /healthz never answered 200 (last error %v)", err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// listeningAddr extracts the bound address from lampsd's JSON
// "listening" log line, or returns "".
func listeningAddr(line []byte) string {
	if !bytes.Contains(line, []byte(`"msg":"listening"`)) {
		return ""
	}
	var rec struct {
		Addr string `json:"addr"`
	}
	if json.Unmarshal(line, &rec) != nil {
		return ""
	}
	return rec.Addr
}

func (d *lampsd) logText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// stop drains lampsd with SIGINT and waits for it to exit. A drain is clean
// when the process exits 0 after logging "stopped"; anything else — a
// non-zero exit, no "stopped" line, or no exit within drainTimeout — is an
// error.
func (d *lampsd) stop() error {
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		select {
		case <-d.exited:
			return fmt.Errorf("lampsd had already exited: %v", d.err)
		default:
			return fmt.Errorf("signalling lampsd: %w", err)
		}
	}
	select {
	case <-d.exited:
	case <-time.After(drainTimeout):
		d.kill()
		return fmt.Errorf("lampsd did not drain within %v", drainTimeout)
	}
	if d.err != nil {
		return fmt.Errorf("lampsd drain was unclean: %v\n%s", d.err, d.logText())
	}
	if !strings.Contains(d.logText(), `"msg":"stopped"`) {
		return fmt.Errorf("lampsd exited without logging a clean stop:\n%s", d.logText())
	}
	return nil
}

// kill ends the process without a drain and waits for it.
func (d *lampsd) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// procStats are lampsd's cumulative CPU time and peak resident set.
type procStats struct {
	cpu   time.Duration // user + system
	hwmMB float64       // VmHWM
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// readProcStats reads the process's CPU time and peak RSS from /proc.
func readProcStats(pid int) (procStats, error) {
	var ps procStats
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return ps, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return ps, fmt.Errorf("parsing /proc/%d/stat: %w", pid, err)
	}
	ps.cpu = time.Duration(ut+st) * time.Second / clockTicks
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return ps, fmt.Errorf("parsing VmHWM: %w", err)
			}
			ps.hwmMB = kb / 1024
		}
	}
	return ps, nil
}

// hostCPU reads the machine-wide CPU time counters: the steal column (time
// the hypervisor ran something else while this machine wanted the CPU) and
// the total, in clock ticks. Their deltas over a window give the share of
// CPU time the host took away, which explains slow runs on shared hosts.
func hostCPU() (steal, total int64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// scrape fetches /metrics and returns every sample by its full series name
// (metric plus label set).
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns after−before for every series matching prefix, summed.
func delta(before, after map[string]float64, prefix string) float64 {
	sum := 0.0
	for k, v := range after {
		if strings.HasPrefix(k, prefix) {
			sum += v - before[k]
		}
	}
	return sum
}

// pid returns lampsd's process id.
func (d *lampsd) pid() int { return d.cmd.Process.Pid }
