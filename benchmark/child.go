package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pmemgraph/internal/graph"
	"pmemgraph/internal/server"
)

// janitor owns everything that must not outlive the run: pmemserved
// children and temporary directories under benchmark/out/. main defers
// sweep, fatal calls it, and a signal handler calls it when the driver is
// interrupted; children additionally carry Pdeathsig so that even a
// SIGKILLed driver leaves no daemon behind.
var janitor struct {
	mu    sync.Mutex
	procs map[*daemon]bool
	dirs  []string
}

func sweep() {
	janitor.mu.Lock()
	defer janitor.mu.Unlock()
	for d := range janitor.procs {
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	janitor.procs = nil
	for _, d := range janitor.dirs {
		_ = os.RemoveAll(d)
	}
	janitor.dirs = nil
}

func watchSignals() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		<-ch
		sweep()
		os.Exit(130)
	}()
}

// tempDir creates a directory under benchmark/out/ that sweep removes.
func tempDir(prefix string) (string, error) {
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return "", err
	}
	d, err := os.MkdirTemp(outDir(), prefix+"-")
	if err != nil {
		return "", err
	}
	d, err = filepath.Abs(d)
	if err != nil {
		return "", err
	}
	janitor.mu.Lock()
	janitor.dirs = append(janitor.dirs, d)
	janitor.mu.Unlock()
	return d, nil
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the child binds it; the window is harmless on a box where
// the benchmark is the only thing opening ports.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// daemon is one pmemserved child.
type daemon struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once the child has been reaped
	base   string
	client *http.Client
	execAt time.Time
	// httpErrors counts transport errors and non-2xx replies.
	httpErrors int
	mu         sync.Mutex
}

const readyTimeout = 60 * time.Second

// startDaemon execs pmemserved on a free port and returns once /healthz
// answers. dataDir may be empty (in-memory serving).
func startDaemon(workers int, dataDir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-workers", strconv.Itoa(workers)}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	cmd := exec.Command(servedBinary, args...)
	cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{
		cmd:    cmd,
		exited: make(chan struct{}),
		base:   fmt.Sprintf("http://127.0.0.1:%d", port),
		client: &http.Client{
			Timeout:   120 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 128},
		},
		execAt: time.Now(),
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", servedBinary, err)
	}
	go func() {
		_ = cmd.Wait()
		close(d.exited)
	}()
	janitor.mu.Lock()
	if janitor.procs == nil {
		janitor.procs = make(map[*daemon]bool)
	}
	janitor.procs[d] = true
	janitor.mu.Unlock()
	if err := d.waitReady(); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

// waitReady polls /healthz until it answers 200. pmemserved replays its
// data dir before it listens, so the first answer also means recovery is
// complete.
func (d *daemon) waitReady() error {
	deadline := time.Now().Add(readyTimeout)
	probe := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("pmemserved on %s exited before it was ready", d.base)
		case <-time.After(2 * time.Millisecond):
		}
	}
	return fmt.Errorf("pmemserved on %s not ready after %s", d.base, readyTimeout)
}

// peakRSSMB reads the child's VmHWM; call it before kill.
func (d *daemon) peakRSSMB() float64 { return vmHWM(d.cmd.Process.Pid) }

// vmHWM returns a process's peak resident set in MB (0 if unreadable).
func vmHWM(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// kill SIGKILLs the child (the crash the durability path is built for) and
// reaps it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
	d.client.CloseIdleConnections()
	janitor.mu.Lock()
	delete(janitor.procs, d)
	janitor.mu.Unlock()
}

func (d *daemon) countError() {
	d.mu.Lock()
	d.httpErrors++
	d.mu.Unlock()
}

// do sends one request and returns the whole body; any transport error or
// non-2xx status is an error (and counted).
func (d *daemon) do(method, path string, body any) ([]byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		d.countError()
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		d.countError()
		return nil, nil, err
	}
	if resp.StatusCode/100 != 2 {
		d.countError()
		return nil, resp.Header, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
	}
	return data, resp.Header, nil
}

func (d *daemon) getJSON(path string, v any) error {
	data, _, err := d.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// loadGraph registers a CSR file under name.
func (d *daemon) loadGraph(name, path string) error {
	_, _, err := d.do(http.MethodPost, "/v1/graphs", map[string]string{"name": name, "path": path})
	return err
}

// reply is one served job.
type reply struct {
	body  []byte
	jobID string
	hit   bool
}

// job submits req with ?wait=1 and returns the canonical result bytes.
func (d *daemon) job(req server.JobRequest) (reply, error) {
	body, hdr, err := d.do(http.MethodPost, "/v1/jobs?wait=1", req)
	if err != nil {
		return reply{}, err
	}
	return reply{body: body, jobID: hdr.Get("X-Job-Id"), hit: hdr.Get("X-Cache") == "hit"}, nil
}

// update posts one batch.
func (d *daemon) update(name string, batch []graph.EdgeUpdate) error {
	_, _, err := d.do(http.MethodPost, "/v1/graphs/"+name+"/updates", map[string]any{"updates": batch})
	return err
}

func (d *daemon) graphInfo(name string) (server.GraphInfo, bool, error) {
	var infos []server.GraphInfo
	if err := d.getJSON("/v1/graphs", &infos); err != nil {
		return server.GraphInfo{}, false, err
	}
	for _, in := range infos {
		if in.Name == name {
			return in, true, nil
		}
	}
	return server.GraphInfo{}, false, nil
}

func (d *daemon) jobs() ([]server.JobStatus, error) {
	var st []server.JobStatus
	err := d.getJSON("/v1/jobs", &st)
	return st, err
}

func (d *daemon) stats() (server.Stats, error) {
	var st server.Stats
	err := d.getJSON("/v1/stats", &st)
	return st, err
}

// writeCSRFile serializes g (with its weights) where a daemon can load it.
func writeCSRFile(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteCSR(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
