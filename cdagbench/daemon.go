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
	"syscall"
	"time"
)

// daemon is a cdagd process started by the benchmark.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{} // closed once the process has been waited for
	err    error         // Wait's result, valid after exited is closed
}

// startDaemon runs cdagd on a free port with a fresh journal in storeDir
// (fsync on, the default) and returns once it answers /readyz.  Background
// compaction is moved out of reach (4 GiB threshold): it is a one-off event
// whose timing depends on how far a run gets, so it would only add noise.
func startDaemon(ctx context.Context, bin, storeDir string, client *http.Client) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no cdagd binary given (-cdagd)")
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-store-dir", storeDir, "-compact-threshold", "4096")
	// The daemon must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start cdagd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "cdagd: listening on "); ok && !sent {
				addr <- a
				sent = true
			}
		}
		// Reading to EOF lets Wait return; it runs only after the pipe is
		// drained, as exec requires.
		d.err = cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.base = <-addr:
	case <-d.exited:
		return nil, fmt.Errorf("cdagd exited before listening: %v", d.err)
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("cdagd did not start listening within 30s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.kill()
			return nil, errors.New("cdagd not ready within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit; a daemon
// still running after 20 s is killed.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signal cdagd: %w", err)
	}
	select {
	case <-d.exited:
		return d.err
	case <-time.After(20 * time.Second):
		d.kill()
		return errors.New("cdagd did not drain within 20s")
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// healthz fetches the daemon's /healthz counters.
func (d *daemon) healthz(client *http.Client) (*healthz, error) {
	resp, err := client.Get(d.base + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var h healthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("decode /healthz: %w", err)
	}
	return &h, nil
}

// healthz is the part of cdagd's /healthz payload the benchmark reads.
type healthz struct {
	Cache struct {
		UsedBytes int64 `json:"used_bytes"`
		Evictions int64 `json:"evictions"`
		Memo      struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"memo"`
	} `json:"cache"`
	Store struct {
		LogBytes     int64 `json:"log_bytes"`
		AppendErrors int64 `json:"append_errors"`
	} `json:"store"`
}

// post sends one request and returns status, memo header and body.
func post(ctx context.Context, client *http.Client, url string, body []byte) (int, bool, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, false, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, false, nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, false, nil, err
	}
	return resp.StatusCode, resp.Header.Get("X-Cdagd-Memo") == "hit", bytes.TrimRight(buf, "\n"), nil
}
