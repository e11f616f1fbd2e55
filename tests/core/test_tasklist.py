"""Tests for JobSpec and the stand-alone task-list parser."""

import pytest

from repro.apps.synthetic import SleepProgram
from repro.core.tasklist import JobSpec, TaskList, TaskListError


class TestJobSpec:
    def test_world_size(self):
        job = JobSpec(program=SleepProgram(1), nodes=4, ppn=2)
        assert job.world_size == 8

    def test_duration_hint_from_program(self):
        job = JobSpec(program=SleepProgram(2.5), nodes=1)
        assert job.duration_hint == 2.5

    def test_explicit_duration_hint_wins(self):
        job = JobSpec(program=SleepProgram(2.5), nodes=1, duration_hint=9.0)
        assert job.duration_hint == 9.0

    def test_serial_must_be_single_process(self):
        with pytest.raises(TaskListError):
            JobSpec(program=SleepProgram(1), nodes=2, mpi=False)

    def test_positive_counts(self):
        with pytest.raises(TaskListError):
            JobSpec(program=SleepProgram(1), nodes=0)
        with pytest.raises(TaskListError):
            JobSpec(program=SleepProgram(1), nodes=1, ppn=0)

    def test_unique_ids(self):
        a = JobSpec(program=SleepProgram(1))
        b = JobSpec(program=SleepProgram(1))
        assert a.job_id != b.job_id


class TestNumericFieldValidation:
    """The run journal writes these fields into JSON verbatim; values
    that would produce a line ``json.loads`` rejects fail at
    construction instead."""

    @pytest.mark.parametrize(
        "hint", [float("inf"), float("-inf"), float("nan"), True, False,
                 "1.0", None],
    )
    def test_bad_duration_hint_rejected(self, hint):
        with pytest.raises(TaskListError, match="duration_hint"):
            JobSpec(program=SleepProgram(1), duration_hint=hint)

    @pytest.mark.parametrize("field", ["nodes", "ppn", "max_attempts",
                                       "priority", "attempts"])
    @pytest.mark.parametrize("value", [True, False, 1.0, 2.5, "1", None])
    def test_non_integer_count_rejected(self, field, value):
        with pytest.raises(TaskListError, match=field):
            JobSpec(program=SleepProgram(1), **{field: value})

    def test_program_duration_must_be_finite(self):
        with pytest.raises(TaskListError, match="duration_hint"):
            JobSpec(program=SleepProgram(float("inf")))

    def test_numpy_scalars_become_json_numbers(self):
        np = pytest.importorskip("numpy")
        job = JobSpec(
            program=SleepProgram(1), nodes=np.int64(2),
            duration_hint=np.float64(2.5), priority=np.int32(-1),
        )
        assert type(job.duration_hint) is float
        assert job.duration_hint == 2.5
        assert job.world_size == 2

    def test_plain_numbers_kept_as_given(self):
        job = JobSpec(program=SleepProgram(1), duration_hint=7, priority=-3)
        assert job.duration_hint == 7 and type(job.duration_hint) is int
        assert job.priority == -3


class TestDuplicateIds:
    def test_duplicate_job_ids_rejected(self):
        a = JobSpec(program=SleepProgram(1), job_id="same")
        b = JobSpec(program=SleepProgram(1), job_id="same")
        with pytest.raises(TaskListError, match="duplicate job id 'same'"):
            TaskList([a, b])

    def test_distinct_explicit_ids_accepted(self):
        a = JobSpec(program=SleepProgram(1), job_id="x1")
        b = JobSpec(program=SleepProgram(1), job_id="x2")
        assert len(TaskList([a, b])) == 2


class TestTaskListParser:
    def test_paper_format(self):
        """The exact Section 5.1 example input."""
        text = """\
MPI: 4 namd2.sh input-1.pdb output-1.log
MPI: 8 namd2.sh input-2.pdb output-2.log
MPI: 6 namd2.sh input-3.pdb output-3.log
"""
        tasks = TaskList.from_text(text)
        assert len(tasks) == 3
        assert [j.nodes for j in tasks] == [4, 8, 6]
        assert all(j.mpi for j in tasks)
        assert tasks.jobs[0].program.input_name == "input-1.pdb"

    def test_serial_lines(self):
        tasks = TaskList.from_lines(["SERIAL: sleep 2.0", "SERIAL: noop"])
        assert len(tasks) == 2
        assert not tasks.jobs[0].mpi
        assert tasks.jobs[0].duration_hint == 2.0

    def test_comments_and_blanks_skipped(self):
        tasks = TaskList.from_lines(
            ["# header", "", "MPI: 2 sleep 1.0", "   ", "# done"]
        )
        assert len(tasks) == 1

    def test_ppn_applied_to_mpi_jobs(self):
        tasks = TaskList.from_lines(["MPI: 2 sleep 1.0"], ppn=4)
        assert tasks.jobs[0].world_size == 8

    def test_unknown_command_rejected(self):
        with pytest.raises(TaskListError, match="unknown command"):
            TaskList.from_lines(["MPI: 2 frobnicate x"])

    def test_bad_node_count_rejected(self):
        with pytest.raises(TaskListError, match="bad node count"):
            TaskList.from_lines(["MPI: many sleep 1"])

    def test_missing_prefix_rejected(self):
        with pytest.raises(TaskListError, match="job-type prefix"):
            TaskList.from_lines(["sleep 1"])

    def test_unknown_kind_rejected(self):
        with pytest.raises(TaskListError, match="unknown job type"):
            TaskList.from_lines(["GPU: 2 sleep 1"])

    def test_empty_rejected(self):
        with pytest.raises(TaskListError):
            TaskList.from_lines(["# nothing"])

    def test_custom_registry(self):
        reg = {"myapp": lambda args: SleepProgram(float(args[0]))}
        tasks = TaskList.from_lines(["MPI: 2 myapp 3.5"], registry=reg)
        assert tasks.jobs[0].duration_hint == 3.5

    def test_total_processes(self):
        tasks = TaskList.from_lines(
            ["MPI: 2 sleep 1", "MPI: 3 sleep 1"], ppn=2
        )
        assert tasks.total_processes == 10
