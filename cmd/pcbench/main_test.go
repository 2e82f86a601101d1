package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestSelectDrivers(t *testing.T) {
	drivers := []experiments.Experiment{{Name: "fig6"}, {Name: "fig7"}, {Name: "tab2"}}
	cases := []struct {
		list    string
		want    []string
		wantErr string
	}{
		{list: "tab2, fig6", want: []string{"fig6", "tab2"}},
		{list: "all", want: []string{"fig6", "fig7", "tab2"}},
		{list: "fig6,all", want: []string{"fig6", "fig7", "tab2"}},
		{list: "fig6,fgi7", wantErr: `"fgi7"`},
		{list: "serve", wantErr: `"serve"`},
		{list: "fig6,serve", wantErr: `"serve"`},
		{list: "", wantErr: `""`},
	}
	for _, c := range cases {
		got, err := selectDrivers(drivers, c.list)
		if c.wantErr != "" {
			if err == nil {
				t.Errorf("%q: selected %v, want an error naming %s", c.list, names(got), c.wantErr)
				continue
			}
			for _, want := range []string{c.wantErr, "fig6 fig7 tab2 all"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%q: error %q does not contain %s", c.list, err, want)
				}
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.list, err)
			continue
		}
		if !reflect.DeepEqual(names(got), c.want) {
			t.Errorf("%q: selected %v, want %v", c.list, names(got), c.want)
		}
	}
}

func names(ds []experiments.Experiment) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.Name)
	}
	return out
}
