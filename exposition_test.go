package tc2d

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"tc2d/internal/obs"
)

// parsedMetrics is a Prometheus text-exposition payload parsed by
// parseExposition: every value line keyed by its full series identity
// ("name" or `name{a="b"}`, exactly as exposed), plus the TYPE declared for
// each family.
type parsedMetrics struct {
	Series map[string]float64
	Types  map[string]string // family name → counter/gauge/histogram
}

func (p *parsedMetrics) has(series string) bool {
	_, ok := p.Series[series]
	return ok
}

// families returns the distinct family names that contributed at least one
// value line, attributing histogram _bucket/_sum/_count lines back to their
// base family.
func (p *parsedMetrics) families() []string {
	seen := make(map[string]bool)
	for id := range p.Series {
		seen[familyOf(p.Types, id)] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// familyOf returns the declared family a series identity belongs to, or ""
// when no # TYPE covers it.
func familyOf(types map[string]string, id string) string {
	name := id
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	if _, ok := types[name]; ok {
		return name
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return ""
}

// parseExposition parses and validates a Prometheus text-format (v0.0.4)
// payload. It accepts only the subset obs.Registry.Expose produces, but is
// strict within it: it rejects value lines for families with no preceding
// # TYPE, malformed label blocks, unparseable values, and histograms whose
// cumulative buckets decrease or whose +Inf bucket disagrees with _count.
func parseExposition(r io.Reader) (*parsedMetrics, error) {
	p := &parsedMetrics{Series: make(map[string]float64), Types: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for lineno := 1; sc.Scan(); lineno++ {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 {
				return nil, fmt.Errorf("line %d: malformed comment %q", lineno, line)
			}
			switch fields[1] {
			case "HELP":
			case "TYPE":
				if len(fields) < 4 {
					return nil, fmt.Errorf("line %d: TYPE without kind", lineno)
				}
				kind := fields[3]
				if kind != "counter" && kind != "gauge" && kind != "histogram" {
					return nil, fmt.Errorf("line %d: unknown TYPE %q", lineno, kind)
				}
				if _, dup := p.Types[fields[2]]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineno, fields[2])
				}
				p.Types[fields[2]] = kind
			default:
				return nil, fmt.Errorf("line %d: unknown comment %q", lineno, fields[1])
			}
			continue
		}
		id, val, err := parseValueLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		if _, dup := p.Series[id]; dup {
			return nil, fmt.Errorf("line %d: duplicate series %q", lineno, id)
		}
		if familyOf(p.Types, id) == "" {
			return nil, fmt.Errorf("line %d: series %q has no # TYPE", lineno, id)
		}
		p.Series[id] = val
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := p.validateHistograms(); err != nil {
		return nil, err
	}
	return p, nil
}

// parseValueLine splits `name{labels} value` into identity and value,
// validating the label block's shape. Quoted label values may hold spaces,
// so the value is what follows the closing brace, or the bare name.
func parseValueLine(line string) (id string, val float64, err error) {
	close := strings.LastIndexByte(line, '}')
	var namePart, valPart string
	if close >= 0 {
		rest := strings.TrimSpace(line[close+1:])
		if rest == "" {
			return "", 0, fmt.Errorf("no value after label block in %q", line)
		}
		namePart, valPart = line[:close+1], rest
	} else {
		i := strings.IndexByte(line, ' ')
		if i < 0 {
			return "", 0, fmt.Errorf("no value in %q", line)
		}
		namePart, valPart = line[:i], strings.TrimSpace(line[i+1:])
	}
	if open := strings.IndexByte(namePart, '{'); open >= 0 {
		if close < open {
			return "", 0, fmt.Errorf("unbalanced label block in %q", line)
		}
		if err := validateLabels(namePart[open+1 : close]); err != nil {
			return "", 0, fmt.Errorf("%w in %q", err, line)
		}
	} else if close >= 0 {
		return "", 0, fmt.Errorf("unbalanced label block in %q", line)
	}
	v, err := parseValue(valPart)
	if err != nil {
		return "", 0, err
	}
	return namePart, v, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad value %q", s)
	}
	return v, nil
}

// validateLabels checks a label block body is a comma-separated sequence of
// name="value" pairs with sane escaping.
func validateLabels(body string) error {
	if body == "" {
		return fmt.Errorf("empty label block")
	}
	for i := 0; i < len(body); {
		eq := strings.IndexByte(body[i:], '=')
		if eq <= 0 {
			return fmt.Errorf("malformed label pair")
		}
		name := body[i : i+eq]
		for _, c := range name {
			if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
				return fmt.Errorf("bad label name %q", name)
			}
		}
		i += eq + 1
		if i >= len(body) || body[i] != '"' {
			return fmt.Errorf("unquoted label value")
		}
		for i++; ; i++ {
			if i >= len(body) {
				return fmt.Errorf("unterminated label value")
			}
			if body[i] == '\\' {
				i++
			} else if body[i] == '"' {
				break
			}
		}
		i++ // past the closing quote
		if i < len(body) {
			if body[i] != ',' {
				return fmt.Errorf("junk after label value")
			}
			i++
		}
	}
	return nil
}

// validateHistograms checks, per histogram series, that cumulative bucket
// counts are non-decreasing in le order and that the +Inf bucket equals the
// _count series.
func (p *parsedMetrics) validateHistograms() error {
	type bucket struct{ le, val float64 }
	groups := make(map[string][]bucket) // family+base labels → buckets
	for id, val := range p.Series {
		name, labels := id, ""
		if i := strings.IndexByte(id, '{'); i >= 0 {
			name, labels = id[:i], id[i+1:len(id)-1]
		}
		base := strings.TrimSuffix(name, "_bucket")
		if base == name || p.Types[base] != "histogram" {
			continue
		}
		var le string
		var rest []string
		for _, pair := range splitLabelPairs(labels) {
			if strings.HasPrefix(pair, "le=") {
				le = strings.Trim(pair[3:], `"`)
			} else {
				rest = append(rest, pair)
			}
		}
		if le == "" {
			return fmt.Errorf("histogram bucket %q missing le", id)
		}
		lv, err := parseValue(le)
		if err != nil {
			return fmt.Errorf("histogram bucket %q: bad le: %w", id, err)
		}
		key := base + "{" + strings.Join(rest, ",") + "}"
		groups[key] = append(groups[key], bucket{le: lv, val: val})
	}
	for key, bs := range groups {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		for i := 1; i < len(bs); i++ {
			if bs[i].val < bs[i-1].val {
				return fmt.Errorf("histogram %s: cumulative buckets decrease at le=%g", key, bs[i].le)
			}
		}
		inf := bs[len(bs)-1]
		if !math.IsInf(inf.le, 1) {
			return fmt.Errorf("histogram %s: missing +Inf bucket", key)
		}
		countID := strings.Replace(key, "{", "_count{", 1)
		if base := strings.TrimSuffix(key, "{}"); base != key {
			countID = base + "_count"
		}
		cnt, ok := p.Series[countID]
		if !ok {
			return fmt.Errorf("histogram %s: missing _count series", key)
		}
		if cnt != inf.val {
			return fmt.Errorf("histogram %s: +Inf bucket %g != count %g", key, inf.val, cnt)
		}
	}
	return nil
}

// splitLabelPairs splits a label-block body on commas outside quotes.
func splitLabelPairs(body string) []string {
	if body == "" {
		return nil
	}
	var out []string
	start, inQ := 0, false
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\\':
			if inQ {
				i++
			}
		case '"':
			inQ = !inQ
		case ',':
			if !inQ {
				out = append(out, body[start:i])
				start = i + 1
			}
		}
	}
	return append(out, body[start:])
}

// TestParserRejectsMalformed enumerates payloads the validator must refuse.
func TestParserRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no TYPE":          "orphan_metric 1\n",
		"bad value":        "# TYPE m counter\nm abc\n",
		"unbalanced brace": "# TYPE m counter\nm{a=\"b\" 1\n",
		"unquoted label":   "# TYPE m counter\nm{a=b} 1\n",
		"bad label name":   "# TYPE m counter\nm{a-b=\"c\"} 1\n",
		"duplicate series": "# TYPE m counter\nm 1\nm 2\n",
		"duplicate TYPE":   "# TYPE m counter\n# TYPE m gauge\nm 1\n",
		"unknown TYPE":     "# TYPE m summary\nm 1\n",
		"decreasing buckets": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"missing +Inf": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 2\nh_sum 1\nh_count 2\n",
		"bucket/count mismatch": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n",
	}
	for name, payload := range cases {
		if _, err := parseExposition(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: validator accepted %q", name, payload)
		}
	}
}

// TestParserAcceptsEscapes checks escaped label values and labeled
// histograms survive the round trip through Expose, and that histogram
// series count toward their one family.
func TestParserAcceptsEscapes(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("esc_total", "t", obs.L("path", `a"b\c`)).Inc()
	r.Histogram("lat_seconds", "t", []float64{0.1}, obs.L("op", "count")).Observe(0.05)
	r.Histogram("lat_seconds", "t", nil, obs.L("op", "update")).Observe(5)
	var sb strings.Builder
	if _, err := r.Expose(&sb); err != nil {
		t.Fatal(err)
	}
	p, err := parseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("escape round trip: %v\n%s", err, sb.String())
	}
	if !p.has(`esc_total{path="a\"b\\c"}`) || p.Series[`lat_seconds_bucket{op="count",le="0.1"}`] != 1 {
		t.Fatalf("series: %v", p.Series)
	}
	if fams := p.families(); strings.Join(fams, " ") != "esc_total lat_seconds" {
		t.Fatalf("families = %v", fams)
	}
}

// TestExposeParsesWhileMutating races Expose against live mutation: every
// payload taken mid-flight must still validate (no torn histogram).
func TestExposeParsesWhileMutating(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("obs_snap_total", "t")
	h := r.Histogram("obs_snap_seconds", "t", obs.DurationBuckets)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			c.Inc()
			h.Observe(0.01)
		}
	}()
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if _, err := r.Expose(&sb); err != nil {
			t.Fatal(err)
		}
		if _, err := parseExposition(strings.NewReader(sb.String())); err != nil {
			t.Fatalf("mid-flight exposition invalid: %v", err)
		}
	}
	<-done
}
