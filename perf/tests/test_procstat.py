import os

import pytest

from perf import procstat

STAT = (
    "4242 (python3 (my) server) S 1 4242 4242 0 -1 4194560 9000 0 2 0 "
    "731 269 0 0 20 0 67 0 123456 900000000 11000 18446744073709551615 "
    "1 1 0 0 0 0 0 16781312 16386 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0"
)
STATUS = "Name:\tpython3\nVmPeak:\t  900000 kB\nVmHWM:\t   46280 kB\nVmRSS:\t   45000 kB\n"


def test_cpu_seconds_counts_fields_after_the_command_name():
    # utime 731 + stime 269 ticks; the command name holds spaces and parentheses
    assert procstat.parse_cpu_seconds(STAT, ticks_per_second=100) == pytest.approx(10.0)


def test_cpu_seconds_refuses_garbage():
    with pytest.raises(ValueError):
        procstat.parse_cpu_seconds("not a stat line")


def test_peak_rss_reads_vmhwm_in_mib():
    assert procstat.parse_peak_rss_mib(STATUS) == pytest.approx(46280 / 1024)
    with pytest.raises(ValueError):
        procstat.parse_peak_rss_mib("Name:\tpython3\n")


def test_reads_a_live_process():
    assert procstat.cpu_seconds(os.getpid()) >= 0.0
    assert procstat.peak_rss_mib(os.getpid()) > 1.0
