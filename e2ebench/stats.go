package main

import (
	"bufio"
	"os"
	"slices"
	"strconv"
	"strings"
)

// median returns the middle value of v (mean of the two middle values
// for an even count), in v's unit.
func median[T int64 | float64](v []T) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return float64(s[len(s)/2])
	}
	return (float64(s[len(s)/2-1]) + float64(s[len(s)/2])) / 2
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(max(len(v), 1))
}

// tailBlockSteps is the smallest block the tail is taken over: 110
// steps put the eleventh-largest at about the 91st percentile.
const tailBlockSteps = 110

// stepTail returns the tail of step durations in ms: the timed steps are
// cut into blocks of at least tailBlockSteps, the tail of each block is
// its highest percentile with ten samples beyond it (the eleventh-largest
// step), and the result is the median over blocks. One slow stretch of
// a shared machine then moves one block rather than the figure. It also
// returns the per-block percentile and the block count.
func stepTail(stepNs []int64) (tail, pct float64, blocks int) {
	n := len(stepNs)
	blocks = max(n/tailBlockSteps, 1)
	tails := make([]int64, blocks)
	for b := range tails {
		s := slices.Clone(stepNs[b*n/blocks : (b+1)*n/blocks])
		slices.Sort(s)
		i := max(len(s)-11, 0)
		tails[b] = s[i]
		pct = 100 * float64(i+1) / float64(len(s))
	}
	return median(tails) / 1e6, pct, blocks
}

// peakRSSMiB reads the process's peak resident set size (VmHWM) from
// /proc; 0 where the file does not exist.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
