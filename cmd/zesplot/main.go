// Command zesplot renders a squarified-treemap SVG of IPv6 prefixes.
// Input is "prefix[,count]" lines on stdin or from a file; without input
// it plots the simulated world's announced prefixes.
//
// Usage:
//
//	zesplot [-in FILE] [-out FILE] [-unsized] [-title T] [-workers N]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"expanse/internal/bgp"
	"expanse/internal/ip6"
	"expanse/internal/zesplot"
)

func main() {
	in := flag.String("in", "", "input file of 'prefix[,count]' lines (default: stdin if piped, else simulated world)")
	out := flag.String("out", "zesplot.svg", "output SVG file")
	unsized := flag.Bool("unsized", false, "equal-area boxes (pattern-spotting variant)")
	title := flag.String("title", "zesplot", "plot title")
	workers := flag.Int("workers", 0, "cap on CPU parallelism (0 = all cores)")
	flag.Parse()
	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}

	var items []zesplot.Item
	var err error
	switch {
	case *in != "":
		var f *os.File
		if f, err = os.Open(*in); err == nil {
			items, err = parse(f)
			f.Close()
		}
	default:
		if fi, _ := os.Stdin.Stat(); fi != nil && fi.Mode()&os.ModeCharDevice == 0 {
			items, err = parse(os.Stdin)
		} else {
			items = fromWorld()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	svg := zesplot.SVG(items, zesplot.Options{Sized: !*unsized, Title: *title})
	if err := os.WriteFile(*out, []byte(svg), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d prefixes)\n", *out, len(items))
}

func parse(r io.Reader) ([]zesplot.Item, error) {
	var items []zesplot.Item
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, ",", 2)
		p, err := ip6.ParsePrefix(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("line %q: %v", line, err)
		}
		val := 0.0
		if len(parts) == 2 {
			if val, err = strconv.ParseFloat(strings.TrimSpace(parts[1]), 64); err != nil {
				return nil, fmt.Errorf("line %q: %v", line, err)
			}
		}
		items = append(items, zesplot.Item{Prefix: p, Value: val})
	}
	return items, sc.Err()
}

// fromWorld plots the simulated world's routing table — the one
// netsim.New generates from the default registry.
func fromWorld() []zesplot.Item {
	var items []zesplot.Item
	for _, ann := range bgp.Generate(bgp.DefaultRegistryConfig()).Announcements() {
		items = append(items, zesplot.Item{Prefix: ann.Prefix, ASN: ann.Origin, Value: 1})
	}
	return items
}
