package main

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
)

// The paper's Figure 7 class means: NUBA's harmonic-mean speedup over the
// memory-side UBA, in percent. The repository holds no per-benchmark
// reference, so beyond these two numbers the model is unvalidated.
const (
	paperLowPct  = 30.4
	paperHighPct = 15.1
)

// The three summary lines every fig7 report ends with.
var (
	fig7NoRepLine = regexp.MustCompile(`(?m)^NUBA-No-Rep vs UBA: low-sharing [+-][0-9.]+%\s+high-sharing [+-][0-9.]+%\s+all [+-][0-9.]+%$`)
	fig7NUBALine  = regexp.MustCompile(`(?m)^NUBA\s+vs UBA: low-sharing ([+-][0-9.]+)%\s+high-sharing ([+-][0-9.]+)%\s+all [+-][0-9.]+%$`)
	fig7PaperLine = "(paper: NUBA +30.4% low, +15.1% high, +23.1% overall vs memory-side UBA)"
)

// fig7Gap reads a fig7 report's summary and returns fig7_gap_pts: the
// mean over the low- and high-sharing class of |measured harmonic-mean
// NUBA speedup over memory-side UBA − the paper's class mean|, in
// percentage points. It fails unless all three summary lines are present.
func fig7Gap(report string) (float64, error) {
	if !fig7NoRepLine.MatchString(report) {
		return -1, fmt.Errorf("no NUBA-No-Rep summary line")
	}
	if !strings.Contains(report, fig7PaperLine) {
		return -1, fmt.Errorf("no paper reference line")
	}
	m := fig7NUBALine.FindStringSubmatch(report)
	if m == nil {
		return -1, fmt.Errorf("no NUBA summary line")
	}
	low, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		return -1, err
	}
	high, err := strconv.ParseFloat(m[2], 64)
	if err != nil {
		return -1, err
	}
	return (math.Abs(low-paperLowPct) + math.Abs(high-paperHighPct)) / 2, nil
}
