package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// runSteady runs every workload (or just the named one) n times, each in a
// child process of its own with seeds seed, seed+1, …, and prints for every
// metric the median, the quartiles and the spread (Q3-Q1)/median. The
// bounds in BENCHMARK.json were chosen from this table.
func runSteady(n int, name string, seed uint64, seconds float64, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	list := workloads
	if name != "" {
		w := workloadByName(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		list = []*benchWorkload{w}
	}
	var host string
	for _, w := range list {
		values := map[string][]float64{}
		units := map[string]string{}
		attempted, failed := 0, 0
		for i := 0; i < n; i++ {
			s := seed + uint64(i)
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(s),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			host = lines[0]
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			attempted += rep.Attempted
			failed += rep.Failed
			for k, m := range rep.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
		}
		fmt.Printf("%s\nworkload %s: %d runs, seeds %d..%d, %g s each, trace %d, failed %d/%d\n",
			host, w.name, n, seed, seed+uint64(n-1), seconds, trace, failed, attempted)
		fmt.Printf("  %-28s %14s %14s %14s %8s %s\n", "metric", "median", "q1", "q3", "spread", "unit")
		for _, k := range sortedKeys(values) {
			v := values[k]
			med := median(v)
			q := [3]float64{med, med, med}
			if len(v) > 1 {
				q = quartiles(v)
			}
			spread := 0.0
			if med != 0 {
				spread = (q[2] - q[0]) / med
			}
			fmt.Printf("  %-28s %14.6g %14.6g %14.6g %7.2f%% %s\n", k, med, q[0], q[2], 100*spread, units[k])
		}
	}
	return nil
}
