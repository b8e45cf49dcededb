//go:build race

package campaign_test

const raceEnabled = true
