package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// daemon is one timeprintd process: the built cmd/timeprintd with
// default flags except its listen addresses and -store-dir, so its CPU
// time and memory stay apart from the load generator's.
type daemon struct {
	cmd        *exec.Cmd
	launched   time.Time
	httpAddr   string
	streamAddr string
	exited     chan struct{} // closed once stderr hits EOF (process gone)
	tail       []string      // last stderr lines, for diagnostics
}

// startDaemon launches timeprintd on ephemeral ports and waits until
// it has printed both bound addresses.
func startDaemon(bin, storeDir string) (*daemon, error) {
	d := &daemon{exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-stream", "127.0.0.1:0", "-store-dir", storeDir)
	// The daemon must not outlive the generator, even when it dies.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d.launched = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start timeprintd: %w", err)
	}
	addrs := make(chan [2]string, 1)
	go func() {
		defer close(d.exited)
		var httpAddr string
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if len(d.tail) < 64 {
				d.tail = append(d.tail, line)
			}
			if i := strings.LastIndex(line, " on http://"); i >= 0 && strings.Contains(line, "serving") {
				httpAddr = line[i+len(" on http://"):]
			}
			if i := strings.LastIndex(line, "streaming ingest on "); i >= 0 {
				addrs <- [2]string{httpAddr, line[i+len("streaming ingest on "):]}
			}
		}
	}()
	select {
	case a := <-addrs:
		d.httpAddr, d.streamAddr = a[0], a[1]
		return d, nil
	case <-d.exited:
		_ = d.cmd.Wait()
		return nil, fmt.Errorf("timeprintd exited during start-up: %s", strings.Join(d.tail, " | "))
	case <-time.After(120 * time.Second):
		return nil, errors.Join(errors.New("timeprintd did not report its addresses within 120s"), d.stop())
	}
}

// peakRSSMB reads the daemon's peak resident set (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// stop drains the daemon with SIGTERM (killing it if the drain stalls)
// and waits until the process and its stderr reader have ended.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	err := d.cmd.Wait()
	if err != nil {
		return fmt.Errorf("timeprintd: %v: %s", err, strings.Join(d.tail, " | "))
	}
	return nil
}

// client is the generator's HTTP side. Its transport holds at most one
// connection, so every HTTP workload stays within the two-connection
// budget together with at most one stream connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply body; the latency the
// benchmark reports ends when the body is read, before it is decoded.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// counters scrapes the daemon's /metrics counters.
func (c *client) counters() (map[string]int64, error) {
	code, data, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	snap, err := obs.ParseSnapshot(bytes.NewReader(data))
	return snap.Counters, err
}

// decodeJSON decodes a 200 reply, or reports the status and error text.
func decodeJSON(code int, data []byte, out any) error {
	if code != http.StatusOK {
		return fmt.Errorf("status %d: %s", code, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}
