package engine_test

import (
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestConfigTableMatchesFields keeps DESIGN.md's "Configuration" table in
// step with engine.Config: one row per exported field, in declaration
// order, so a field cannot be added or removed without saying who sets it.
func TestConfigTableMatchesFields(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Configuration\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "## Configuration" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	row := regexp.MustCompile("(?m)^\\| `(\\w+)` \\|")
	var rows []string
	for _, m := range row.FindAllStringSubmatch(section, -1) {
		rows = append(rows, m[1])
	}

	var fields []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(engine.Config{})) {
		if f.IsExported() && len(f.Index) == 1 {
			fields = append(fields, f.Name)
		}
	}
	if !slices.Equal(rows, fields) {
		t.Errorf("DESIGN.md Configuration rows\n\t%v\nwant engine.Config's fields\n\t%v", rows, fields)
	}
}
