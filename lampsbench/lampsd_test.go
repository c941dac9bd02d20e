package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"testing"
)

// fakeEnv selects the fake-lampsd mode when the test binary re-executes
// itself as a lampsd stand-in.
const fakeEnv = "LAMPSBENCH_FAKE_LAMPSD"

func TestMain(m *testing.M) {
	if mode := os.Getenv(fakeEnv); mode != "" {
		os.Exit(fakeLampsd(mode))
	}
	os.Exit(m.Run())
}

// fakeLampsd logs like lampsd, serves /healthz, and on SIGINT exits the way
// mode says: "clean" logs stopped and exits 0, "crash" exits 1, "silent"
// exits 0 without logging stopped.
func fakeLampsd(mode string) int {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 2
	}
	fmt.Fprintf(os.Stderr, "{\"msg\":\"listening\",\"addr\":%q}\n", ln.Addr().String())
	go http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	<-sig
	switch mode {
	case "clean":
		fmt.Fprintln(os.Stderr, `{"msg":"draining"}`)
		fmt.Fprintln(os.Stderr, `{"msg":"stopped"}`)
		return 0
	case "silent":
		return 0
	}
	return 1
}

func startFake(t *testing.T, mode string) *lampsd {
	t.Helper()
	t.Setenv(fakeEnv, mode)
	client := newClient(1)
	defer client.CloseIdleConnections()
	d, took, err := startLampsd(context.Background(), client, os.Args[0])
	if err != nil {
		t.Fatal(err)
	}
	if took <= 0 {
		t.Fatalf("start-up time %v", took)
	}
	return d
}

func TestUncleanDrainIsAFailure(t *testing.T) {
	if err := startFake(t, "clean").stop(); err != nil {
		t.Fatalf("clean drain reported as %v", err)
	}
	for _, mode := range []string{"crash", "silent"} {
		if err := startFake(t, mode).stop(); err == nil {
			t.Errorf("%s exit accepted as a clean drain", mode)
		}
	}
}

// The real lampsd, built from this tree with the benchmark's deployment
// flags, drains cleanly on SIGINT after serving a request and persisting it.
func TestLampsdDrainsCleanlyOnSIGINT(t *testing.T) {
	if testing.Short() {
		t.Skip("builds lampsd")
	}
	bin := filepath.Join(t.TempDir(), "lampsd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/lampsd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building lampsd: %v\n%s", err, out)
	}
	client := newClient(1)
	defer client.CloseIdleConnections()
	d, _, err := startLampsd(context.Background(), client, bin, "-store-dir", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	body := `{"approach":"lamps+ps","deadline_factor":2,"graph":{"tasks":[{"weight_cycles":3100000},{"weight_cycles":6200000}],"edges":[[0,1]]}}`
	resp, err := client.Post(d.base+"/v1/schedule", "application/json", strings.NewReader(body))
	if err != nil {
		d.kill()
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.kill()
		t.Fatalf("status %d", resp.StatusCode)
	}
	client.CloseIdleConnections()
	if err := d.stop(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
