package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// envStamp identifies the machine and build a result was measured on.
type envStamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	JournalFS  string `json:"journal_fs"`
}

func (e envStamp) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s journal_fs=%s",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Commit, e.JournalFS)
}

// Filesystem magic numbers from statfs(2).
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x858458f6: "ramfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794c7630: "overlayfs",
	0x6969:     "nfs",
	0x2fc12fc1: "zfs",
	0x65735546: "fuse",
	0xF2F52010: "f2fs",
}

// fsType names the filesystem holding dir.
func fsType(dir string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", fmt.Errorf("statfs %s: %w", dir, err)
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name, nil
	}
	return fmt.Sprintf("0x%x", st.Type), nil
}

// memoryFS reports filesystems where fsync costs nothing, which would hide
// the journal's durability cost.
func memoryFS(name string) bool { return name == "tmpfs" || name == "ramfs" }

// buildCommit is the git commit the binary was built from, stamped by run.sh
// ("unknown" outside a git work tree).
var buildCommit = "unknown"

func stampEnv(journalDir string) (envStamp, error) {
	fs, err := fsType(journalDir)
	if err != nil {
		return envStamp{}, err
	}
	return envStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     buildCommit,
		JournalFS:  fs,
	}, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
