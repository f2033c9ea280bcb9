(** Page tables stored in simulated physical memory.

    Each address space owns a flat array of page-table entries (one word
    per virtual page) living at [table.base] in physical memory. Keeping
    the entries *in* simulated memory is load-bearing: the fault-injection
    experiments flip bits in kernel memory, and a corrupted PTE must
    really cause a wrong translation, a protection fault, or a physical
    abort — as it does on the paper's hardware.

    PTE word layout:
    - bit 0: valid
    - bit 1: writable
    - bit 2: DMA buffer mark (the "unused page-table bit" x86 error
      masking uses to find DMA mappings when the primary is removed;
      the 32-bit Arm profile has no such spare bit, so masking is
      unsupported there — Section IV-A)
    - bit 3: device page (accesses are MMIO, not RAM)
    - bit 4: dirty mirror (spare software bit; see below)
    - bits 8+: physical page number (or device page id)

    Bit 4 is the same kind of spare page-table bit the paper's x86
    masking path uses for DMA marks: {!mirror_dirty} copies {!Mem}'s
    per-physical-page dirty flags into it so tooling can inspect write
    tracking through the paging structures. {!encode}/{!decode} ignore
    the bit — re-encoding an entry (as {!set} does) clears the mirror,
    exactly like rebuilding a PTE on real hardware. *)

type pte = {
  valid : bool;
  writable : bool;
  dma : bool;
  device : bool;
  ppn : int;
}

val invalid_pte : pte

val encode : pte -> int
val decode : int -> pte

val page_shift : int
(** 8: pages are 256 words (re-exported from {!Mem.page_shift}, the
    single source of truth — [Mem] owns it because it cannot depend on
    this module). *)

val page_size : int

type table = {
  base : int;  (** Physical address of the PTE array. *)
  npages : int;  (** Number of virtual pages covered. *)
}

val table_words : table -> int
(** Physical footprint of the table ([npages]). *)

val set : Mem.t -> table -> vpn:int -> pte -> unit
(** Raises [Invalid_argument] if [vpn] is out of the covered range. *)

val get : Mem.t -> table -> vpn:int -> pte

val clear : Mem.t -> table -> unit

val dirty_bit : int
(** The spare bit's mask (16). *)

val set_dirty : Mem.t -> table -> vpn:int -> unit
(** Raw-word OR of {!dirty_bit} into the PTE; raises
    [Invalid_argument] on a bad [vpn]. *)

val is_dirty : Mem.t -> table -> vpn:int -> bool

val clear_all_dirty : Mem.t -> table -> unit
(** Strip {!dirty_bit} from every entry. *)

val mirror_dirty : Mem.t -> table -> int
(** Set {!dirty_bit} on every valid non-device entry whose mapped
    physical page is dirty in [mem]'s write-tracking bitmap; returns
    the number of entries newly marked. Invalid or device entries are
    left untouched. *)

type resolution =
  | Phys of int  (** RAM physical word address. *)
  | Device of int * int  (** Device page id, word offset within page. *)
  | No_mapping
  | Not_writable

val translate : Mem.t -> table -> vaddr:int -> write:bool -> resolution
(** Walk the table (reads simulated memory; can raise {!Mem.Abort} if
    the table base itself is corrupt). A garbage frame number is returned
    as-is in [Phys]; the subsequent physical access will abort, which the
    kernel reports as a kernel data abort. *)

val phys : Mem.t -> table -> vaddr:int -> write:bool -> int
(** The allocation-free common case of {!translate}: the physical
    address when [translate] would return [Phys p] with [p >= 0], and
    [-1] in every other case (no mapping, write-protected, device page,
    or a wrapped-negative frame address), for which the caller falls
    back to {!translate}. Same memory reads, same {!Mem.Abort}. *)

val vpn_of : int -> int
val offset_of : int -> int
