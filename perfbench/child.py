"""Fresh child processes of the benchmark.

    python3 perfbench/child.py setup
        import cyanine, compile and run a trivial program, as one CLI call does
    python3 perfbench/child.py pass WORKLOAD SEED
        run one pass of the workload and print the peak RSS in KiB

Exits 1 when an output is wrong.
"""

import resource
import sys

import workloads

HELLO = """package main
public object Program
    public fun run [ Out println: "hello"; ]
end
"""


def main(argv):
    modules = workloads.bootstrap()
    if argv[0] == "setup":
        _diagnostics, driver, interp_mod = modules
        interp = interp_mod.Interp(driver.compile_program([("hello.cyan", HELLO)]))
        return 0 if interp.run() == 0 and interp.stdout() == "hello\n" else 1
    workload, seed = argv[1], int(argv[2])
    result = workloads.run_pass(workloads.make_cases(workload, seed), modules)
    for failure in result.failures:
        sys.stderr.write(failure + "\n")
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return 1 if result.failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
