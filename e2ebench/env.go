package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envRecord describes the machine and settings of one run. It is
// recorded beside the numbers so box drift is visible; it never drops
// or rescales a run.
type envRecord struct {
	GitRev              string    `json:"git_rev"`
	GoVersion           string    `json:"go_version"`
	GeneratorGOMAXPROCS int       `json:"generator_gomaxprocs"`
	ServerGOMAXPROCS    int       `json:"server_gomaxprocs"`
	NProc               int       `json:"nproc"`
	CPUModel            string    `json:"cpu_model"`
	DaemonFlags         []string  `json:"daemon_flags"`
	StoreFS             string    `json:"store_fs"`
	StealTicks          int64     `json:"steal_ticks"`
	SpinMS              []float64 `json:"spin_ms"` // reference loop, before and after the run
	steal0              int64
}

func startEnv(cfg config) *envRecord {
	e := &envRecord{
		GitRev:              gitRev(),
		GoVersion:           runtime.Version(),
		GeneratorGOMAXPROCS: runtime.GOMAXPROCS(0),
		ServerGOMAXPROCS:    daemonGOMAXPROCS,
		NProc:               runtime.NumCPU(),
		CPUModel:            cpuModel(),
		DaemonFlags:         daemonFlags(),
		StoreFS:             fsType(cfg.work),
		steal0:              stealTicks(),
	}
	e.SpinMS = append(e.SpinMS, spin())
	return e
}

func (e *envRecord) finish() {
	e.StealTicks = stealTicks() - e.steal0
	e.SpinMS = append(e.SpinMS, spin())
}

// spin times a fixed CPU-bound loop: a reference for how fast the box
// runs right now.
func spin() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return time.Since(t0).Seconds() * 1000
}

var spinSink uint64

// gitRev is the checkout's commit, when it is a git work tree.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git work tree)"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealTicks is the machine-wide steal time from /proc/stat.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	os.MkdirAll(dir, 0o755)
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}
