package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestServingAddr(t *testing.T) {
	for _, c := range []struct {
		line string
		want string
		ok   bool
	}{
		{"serving on 127.0.0.1:41234", "127.0.0.1:41234", true},
		{"serving on 127.0.0.1:41234\n", "127.0.0.1:41234", true},
		{"serving on [::]:8080", "127.0.0.1:8080", true},
		{"serving on 0.0.0.0:8080", "127.0.0.1:8080", true},
		{"serving on :8080", "127.0.0.1:8080", true},
		{"serving on [::1]:9000", "[::1]:9000", true},
		{"dataset: 300 points x 8 dims; T = 4.6; backend = auto", "", false},
		{"serving on localhost", "", false},
		{"serving on 127.0.0.1:http", "", false},
		{"pprof on http://127.0.0.1:6060/debug/pprof/", "", false},
	} {
		got, ok := servingAddr(c.line)
		if ok != c.ok || got != c.want {
			t.Errorf("servingAddr(%q) = %q, %v; want %q, %v", c.line, got, ok, c.want, c.ok)
		}
	}
}

func TestVmHWM(t *testing.T) {
	path := filepath.Join(t.TempDir(), "status")
	status := "Name:\thosserve\nVmPeak:\t  812345 kB\nVmHWM:\t   20808 kB\nVmRSS:\t   18000 kB\n"
	if err := os.WriteFile(path, []byte(status), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := vmHWM(path)
	if err != nil || got != 20808.0/1024 {
		t.Errorf("vmHWM = %v, %v; want %v", got, err, 20808.0/1024)
	}
	if err := os.WriteFile(path, []byte("Name:\thosserve\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := vmHWM(path); err == nil {
		t.Error("vmHWM accepted a status file without VmHWM")
	}
}
