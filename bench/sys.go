package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuNow returns the CPU time (user + system, every thread, GC included)
// the process has used so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetRSSPeak returns the freed heap to the system and sets the resident-
// set high-water mark back to what is resident now, so that the mark read
// at exit is the measured phase's peak and not the set-up's.
func resetRSSPeak() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// rssPeakMB reads the process's resident-set high-water mark.
func rssPeakMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// mallocs returns the process's cumulative heap allocation count and bytes.
func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// nontestGoLOC counts the lines of every non-test Go file under root,
// leaving out the benchmark's own directory: the size of the program the
// benchmark measures (ROADMAP aim 2 expects it to go down).
func nontestGoLOC(root, benchDir string) (int, error) {
	lines := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || filepath.Clean(path) == filepath.Clean(benchDir)) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			lines++
		}
		return sc.Err()
	})
	return lines, err
}

// median returns the middle of vs (the mean of the middle two for an even
// count). It sorts a copy.
func median(vs []float64) float64 {
	return quantile(vs, 0.5)
}

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics. vs must not be empty.
func quantile(vs []float64, q float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// iqrPct is the distance between the quartiles of vs as a percentage of
// its median.
func iqrPct(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	return 100 * (quantile(vs, 0.75) - quantile(vs, 0.25)) / m
}

// ms and us convert a duration to fractional milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// lines splits an NDJSON buffer into its non-empty lines.
func lines(b []byte) [][]byte {
	var out [][]byte
	for _, l := range bytes.Split(b, []byte{'\n'}) {
		if len(l) > 0 {
			out = append(out, l)
		}
	}
	return out
}
